package sat

import (
	"atpgeasy/internal/cnf"
)

// DPLL is the production solver used as the TEGUS stand-in: the
// Incremental CDCL core (two-watched-literal unit propagation, first-UIP
// conflict clause learning, activity-driven decisions with phase saving,
// geometric restarts) run one-shot on a fresh instance, with no
// assumptions and no priority order. MaxConflicts, when positive, aborts
// with Unknown.
type DPLL struct {
	MaxConflicts int64
}

// Solve decides satisfiability of f on a fresh Incremental instance.
func (d *DPLL) Solve(f *cnf.Formula) Solution {
	s := &Incremental{MaxConflicts: d.MaxConflicts}
	s.Load(f, nil)
	return s.SolveAssuming(nil, Limits{})
}

const litUndef = cnf.Lit(-1)

// Activity rescale parameters of the CDCL core: when any activity
// exceeds activityLimit, all activities and the bump increment are
// scaled down together so their ratios — and therefore the decision
// order — are preserved exactly.
const (
	activityLimit   = 1e100
	activityRescale = 1e-100
)

// rescaleActivities scales every activity and the bump increment by
// activityRescale. Scaling varInc alongside the activities is what
// keeps future bumps proportionate: rescaling only the activity array
// would make the next bumps 1e100 times too strong, collapsing the
// decision order to recency and degrading long incremental runs.
func rescaleActivities(activity []float64, varInc *float64) {
	for i := range activity {
		activity[i] *= activityRescale
	}
	*varInc *= activityRescale
}

// varHeap is an indexed max-heap over variable activities.
type varHeap struct {
	act  []float64
	heap []int
	pos  []int // var → heap index, -1 if absent
}

// reset makes h hold every variable of act in the identity layout,
// reusing its buffers. That layout is a heap while all activities are
// equal; after changing them in bulk, call rebuild.
func (h *varHeap) reset(act []float64) {
	h.act = act
	h.heap = sized(h.heap, len(act))
	h.pos = sized(h.pos, len(act))
	for v := range act {
		h.heap[v], h.pos[v] = v, v
	}
}

func (h *varHeap) size() int           { return len(h.heap) }
func (h *varHeap) contains(v int) bool { return h.pos[v] >= 0 }

func (h *varHeap) push(v int) {
	if h.pos[v] >= 0 {
		return
	}
	h.pos[v] = len(h.heap)
	h.heap = append(h.heap, v)
	h.up(h.pos[v])
}

func (h *varHeap) pop() int {
	v := h.heap[0]
	last := len(h.heap) - 1
	h.heap[0] = h.heap[last]
	h.pos[h.heap[0]] = 0
	h.heap = h.heap[:last]
	h.pos[v] = -1
	if last > 0 {
		h.down(0)
	}
	return v
}

func (h *varHeap) update(v int) {
	if h.pos[v] >= 0 {
		h.up(h.pos[v])
	}
}

// rebuild re-heapifies after bulk activity initialization.
func (h *varHeap) rebuild() {
	for i := len(h.heap)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

func (h *varHeap) up(i int) {
	v := h.heap[i]
	for i > 0 {
		parent := (i - 1) / 2
		if h.act[h.heap[parent]] >= h.act[v] {
			break
		}
		h.heap[i] = h.heap[parent]
		h.pos[h.heap[i]] = i
		i = parent
	}
	h.heap[i] = v
	h.pos[v] = i
}

func (h *varHeap) down(i int) {
	v := h.heap[i]
	n := len(h.heap)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		best := l
		if r := l + 1; r < n && h.act[h.heap[r]] > h.act[h.heap[l]] {
			best = r
		}
		if h.act[h.heap[best]] <= h.act[v] {
			break
		}
		h.heap[i] = h.heap[best]
		h.pos[h.heap[i]] = i
		i = best
	}
	h.heap[i] = v
	h.pos[v] = i
}
