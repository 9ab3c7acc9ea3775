package atpg

// This file is the engine's contention-free dispatch layer: the atomic
// drop bitset shared by claims and flushes, the effort-ordered dispatch
// array (largest fanout cone first), the chunked claim protocol, the
// dispatch plan, and runPlan — the one loop every worker of the sweep
// and of each retry tier runs. None of these paths take a lock: claims
// advance an atomic cursor and read drop bits, flushes set drop bits,
// and the deterministic commit frontier in engine.go is the only
// serialized section.

import (
	"context"
	"sort"
	"sync/atomic"
	"time"

	"atpgeasy/internal/logic"
	"atpgeasy/internal/obs"
	"atpgeasy/internal/sat"
)

// bitset is a fixed-size concurrent bitset. Readers and writers
// synchronize through the word atomics alone, so claim-path reads never
// contend with flush-path writes (the old design copied an O(faults)
// []bool snapshot under the run mutex on every flush).
type bitset []atomic.Uint64

func newBitset(n int) bitset {
	return make(bitset, (n+63)/64)
}

// get reports whether bit i is set.
func (b bitset) get(i int) bool {
	return b[i>>6].Load()&(1<<(uint(i)&63)) != 0
}

// set sets bit i and reports whether this call flipped it from clear to
// set — the caller that wins the flip owns the transition (used to count
// each dropped fault exactly once).
func (b bitset) set(i int) bool {
	w := &b[i>>6]
	mask := uint64(1) << (uint(i) & 63)
	for {
		old := w.Load()
		if old&mask != 0 {
			return false
		}
		if w.CompareAndSwap(old, old|mask) {
			return true
		}
	}
}

// effortOrder builds the dispatch order of the undecided faults: indices
// into faults, largest fanout cone first, fault-list order among equals.
// The fanout-cone size is a cheap structural proxy for solver effort (the
// miter is built from the fanin of the fanout cone, so a bigger cone
// means a bigger ATPG-SAT instance): scheduling the expensive faults
// first keeps one hard fault from serializing the tail of a parallel
// run. skip marks faults already decided (RPT pre-phase or a resumed
// journal); they get no dispatch slot at all.
func effortOrder(c *logic.Circuit, faults []Fault, skip []bool) []int32 {
	sizer := newConeSizer(c)
	effort := make([]int32, len(faults))
	order := make([]int32, 0, len(faults))
	for i, f := range faults {
		if skip != nil && skip[i] {
			continue
		}
		effort[i] = sizer.coneOf(f.Net)
		order = append(order, int32(i))
	}
	// Full tie-break on the fault index makes the order deterministic
	// without a stable sort.
	sort.Slice(order, func(a, b int) bool {
		if ea, eb := effort[order[a]], effort[order[b]]; ea != eb {
			return ea > eb
		}
		return order[a] < order[b]
	})
	return order
}

// coneSizer memoizes fanout-cone node counts, the structural effort
// proxy shared by the effort-ordered dispatch and the region grouping
// (region.go): the miter is built from the fanin of the fanout cone,
// so a bigger cone means a bigger ATPG-SAT instance.
type coneSizer struct {
	c     *logic.Circuit
	cone  map[int]int32 // net -> fanout-cone node count
	mark  []int
	stamp int
	stack []int
}

func newConeSizer(c *logic.Circuit) *coneSizer {
	return &coneSizer{c: c, cone: make(map[int]int32), mark: make([]int, len(c.Nodes))}
}

func (s *coneSizer) coneOf(net int) int32 {
	if sz, ok := s.cone[net]; ok {
		return sz
	}
	s.stamp++
	s.stack = append(s.stack[:0], net)
	s.mark[net] = s.stamp
	size := int32(0)
	for len(s.stack) > 0 {
		n := s.stack[len(s.stack)-1]
		s.stack = s.stack[:len(s.stack)-1]
		size++
		for _, f := range s.c.Nodes[n].Fanout {
			if s.mark[f] != s.stamp {
				s.mark[f] = s.stamp
				s.stack = append(s.stack, f)
			}
		}
	}
	s.cone[net] = size
	return size
}

// Claim chunking: a worker reserves a small run of dispatch slots with
// one atomic add instead of one per fault, guided-self-scheduling style —
// chunks shrink as the list drains so the tail still balances across
// workers.
const (
	maxClaimChunk = 8
	claimChunkDiv = 4 // chunk ≈ remaining / (claimChunkDiv · workers)
)

// chunkClaimer hands out the positions [0, n) of a shared work list,
// reserving them in chunks off an atomic cursor. One instance per worker,
// all pointing at the same cursor.
type chunkClaimer struct {
	cursor  *atomic.Int64
	n       int
	workers int
	lo, hi  int // reserved, not yet popped
	// onChunk, when set, observes each successful chunk reservation
	// (positions [lo, hi)) — the observability hook feeding the flight
	// recorder and dispatch-chunk spans. Called on the claiming worker's
	// goroutine, outside any lock.
	onChunk func(lo, hi int)
}

// next returns the next reserved position, or -1 at exhaustion. Lock-free:
// one CAS per chunk.
func (cl *chunkClaimer) next() int {
	for cl.lo >= cl.hi {
		cur := cl.cursor.Load()
		remaining := cl.n - int(cur)
		if remaining <= 0 {
			return -1
		}
		chunk := remaining / (claimChunkDiv * cl.workers)
		if chunk < 1 {
			chunk = 1
		}
		if chunk > maxClaimChunk {
			chunk = maxClaimChunk
		}
		if cl.workers == 1 {
			// A single worker commits after every solve; claiming one slot
			// at a time lets each flush drop faults before they are
			// claimed, so a serial run never solves a fault redundantly.
			chunk = 1
		}
		if cl.cursor.CompareAndSwap(cur, cur+int64(chunk)) {
			cl.lo, cl.hi = int(cur), int(cur)+chunk
			if cl.onChunk != nil {
				cl.onChunk(cl.lo, cl.hi)
			}
		}
	}
	p := cl.lo
	cl.lo++
	return p
}

// dispatchPlan is one pass of the dispatch loop — the main sweep or one
// retry tier: the order its faults are laid out in (the order the commit
// frontier walks) and the region groups over a prefix of that order.
// Workers share one plan and claim from its two cursors.
type dispatchPlan struct {
	order []int32
	// groups partition order[:groupEnd]; each is solved on the worker's
	// incremental CDCL instance. Single faults fill order[groupEnd:] and
	// solve on the engine's solver.
	groups   []faultGroup
	groupEnd int
	// budget bounds each member's or single fault's solve (0 = no
	// deadline).
	budget time.Duration

	groupCursor, singleCursor atomic.Int64
}

// planDispatch lays out a plan over the faults not in skip: every fault
// in a region group when the engine's solver is the incremental core's
// family (grouped), otherwise every fault single, in effort order.
func planDispatch(c *logic.Circuit, faults []Fault, skip []bool, grouped bool, groupMax int, budget time.Duration) *dispatchPlan {
	pl := &dispatchPlan{budget: budget}
	if grouped {
		pl.order, pl.groups = buildGroups(c, faults, skip, groupMax)
		pl.groupEnd = len(pl.order)
	} else {
		pl.order = effortOrder(c, faults, skip)
	}
	return pl
}

// emitFunc receives one decided fault by its position in the plan's
// order. The sweep publishes it to the commit frontier; a retry tier
// adopts it as the fault's verdict.
type emitFunc func(p int, res Result) error

// runPlan is the engine's one dispatch loop, run by every worker of the
// sweep and of each retry tier. The worker first claims whole region
// groups off the group cursor (one atomic add each — a group is already
// a chunk) and solves each on its incremental instance, then claims
// single faults in chunks off the single cursor and solves each one on
// the engine's solver. Claims are lock-free; a fault dropped since its
// plan was laid out is skipped without a solve. parent is the span the
// pass's group and dispatch-chunk spans hang off.
func (e *Engine) runPlan(ctx context.Context, st *runState, pl *dispatchPlan, worker int, ws *workerScratch, parent obs.SpanContext, emit emitFunc) error {
	var shrinkSeen int64
	for {
		if ctx.Err() != nil {
			return nil
		}
		st.maybeShrink(ws, worker, &shrinkSeen)
		gi := int(pl.groupCursor.Add(1) - 1)
		if gi >= len(pl.groups) {
			break
		}
		if err := e.solveGroup(ctx, st, pl, &pl.groups[gi], ws, worker, &shrinkSeen, parent, emit); err != nil {
			return err
		}
	}

	tel := st.opt.Telemetry
	// Each chunk reservation is one flight-recorder event and (under span
	// tracing) rotates the worker's current dispatch-chunk span.
	var chunkSpan obs.Span
	defer func() { chunkSpan.End() }()
	cl := chunkClaimer{cursor: &pl.singleCursor, n: len(pl.order) - pl.groupEnd, workers: st.workers}
	cl.onChunk = func(lo, hi int) {
		st.ring.Record("chunk", worker, int64(pl.groupEnd+lo), int64(hi-lo), 0)
		if tel.hasSpans() {
			chunkSpan.End()
			chunkSpan = tel.startSpan("dispatch-chunk", parent)
			chunkSpan.Worker = worker
			chunkSpan.Items = int64(hi - lo)
		}
	}
	for {
		if ctx.Err() != nil {
			return nil
		}
		st.maybeShrink(ws, worker, &shrinkSeen)
		k := cl.next()
		if k < 0 {
			return nil
		}
		p := pl.groupEnd + k
		i := int(pl.order[p])
		if st.droppedF.get(i) {
			continue // dropped by a committed vector since the plan was laid out
		}
		fspan := tel.startSpan("fault", chunkSpan.Context())
		if fspan.Active() {
			fspan.Worker = worker
			fspan.Detail = st.faults[i].Name(st.c)
		}
		res, err := e.solveSingle(ctx, st, pl, i, ws)
		fspan.Items = res.SolverStats.SearchEffort()
		fspan.End()
		st.ring.Record("solve", worker, int64(i), int64(res.Status), res.Elapsed.Nanoseconds())
		if err != nil {
			return err
		}
		if res.Status == Errored {
			st.dumpRingOnce("fault panic recovered", true)
		}
		if ctx.Err() != nil {
			// The abort is a draining artifact, not a verdict on the fault.
			return nil
		}
		if err := emit(p, res); err != nil {
			return err
		}
	}
}

// solveSingle decides one single-dispatched fault on the engine's solver
// behind the per-fault panic barrier. The plan's budget, when positive,
// bounds the solve.
func (e *Engine) solveSingle(ctx context.Context, st *runState, pl *dispatchPlan, i int, ws *workerScratch) (Result, error) {
	f := st.faults[i]
	return e.safeSolve(f, ws, func() (Result, error) {
		lim := sat.Limits{Cancel: ctx.Done()}
		if pl.budget > 0 {
			lim.Deadline = time.Now().Add(pl.budget)
		}
		return e.testFault(st.c, f, lim, ws, st.opt.CacheLimit)
	})
}
