package atpg

// Per-fault structural features for the effort log: everything here is
// computable without solving — fanout-cone shape, the size of the
// sub-circuit the formula encodes and SCOAP testability. The effort
// report correlates each column against the observed solver effort.

import (
	"sync"

	"atpgeasy/internal/logic"
)

// FaultFeatures is the structural feature vector of one fault, embedded
// flat into its EffortRecord.
type FaultFeatures struct {
	// ConeSize is the node count of the fault net's transitive fanout —
	// the effort-ordered dispatcher's priority key.
	ConeSize int32 `json:"cone_size"`
	// ConeDepth is the number of logic levels the fanout cone spans, from
	// the fault net to its deepest reachable node.
	ConeDepth int32 `json:"cone_depth"`
	// Gates is the gate count (non-input, non-constant nodes) of the
	// fault's sub-circuit — fanin of the fanout cone, the structure the
	// formula actually encodes, so it tracks instance size (Figure 1's
	// x-axis) without encoding anything.
	Gates int32 `json:"gates"`
	// CC0/CC1/CO are the fault net's SCOAP measures (see ComputeScoap).
	CC0 int32 `json:"cc0"`
	CC1 int32 `json:"cc1"`
	CO  int32 `json:"co"`
}

// featureExtractor computes FaultFeatures with reused mark/stack buffers
// so the per-fault cost is two DFS walks. One extractor per goroutine;
// the Scoap table is shared read-only.
type featureExtractor struct {
	c     *logic.Circuit
	scoap *Scoap

	mark  []int
	stamp int
	stack []int
	cone  []int // fanout cone of the current fault, reused
}

func newFeatureExtractor(c *logic.Circuit, scoap *Scoap) *featureExtractor {
	return &featureExtractor{c: c, scoap: scoap, mark: make([]int, len(c.Nodes))}
}

func (x *featureExtractor) extract(f Fault) FaultFeatures {
	c := x.c
	ft := FaultFeatures{
		CC0: x.scoap.CC0[f.Net],
		CC1: x.scoap.CC1[f.Net],
		CO:  x.scoap.CO[f.Net],
	}

	// Fanout cone DFS: size and deepest level reached.
	x.stamp++
	x.cone = append(x.cone[:0], f.Net)
	x.mark[f.Net] = x.stamp
	maxLevel := c.Level(f.Net)
	x.stack = append(x.stack[:0], f.Net)
	for len(x.stack) > 0 {
		n := x.stack[len(x.stack)-1]
		x.stack = x.stack[:len(x.stack)-1]
		if lv := c.Level(n); lv > maxLevel {
			maxLevel = lv
		}
		for _, o := range c.Nodes[n].Fanout {
			if x.mark[o] != x.stamp {
				x.mark[o] = x.stamp
				x.cone = append(x.cone, o)
				x.stack = append(x.stack, o)
			}
		}
	}
	ft.ConeSize = int32(len(x.cone))
	ft.ConeDepth = int32(maxLevel-c.Level(f.Net)) + 1

	// Fanin DFS from the whole cone (same stamp: cone nodes are already
	// marked, so the walk only adds the side inputs' support) counts the
	// gates of the sub-circuit the formula encodes.
	gates := int32(0)
	for _, n := range x.cone {
		if c.Nodes[n].Type >= logic.Buf {
			gates++
		}
		x.stack = append(x.stack, c.Nodes[n].Fanin...)
	}
	for len(x.stack) > 0 {
		n := x.stack[len(x.stack)-1]
		x.stack = x.stack[:len(x.stack)-1]
		if x.mark[n] == x.stamp {
			continue
		}
		x.mark[n] = x.stamp
		if c.Nodes[n].Type >= logic.Buf {
			gates++
		}
		x.stack = append(x.stack, c.Nodes[n].Fanin...)
	}
	ft.Gates = gates
	return ft
}

// computeFeatures extracts every fault's features, sharded across
// workers goroutines (each with its own extractor over the shared SCOAP
// table). Runs before the pre-phase so RPT-decided faults get feature
// vectors too.
func computeFeatures(c *logic.Circuit, faults []Fault, workers int) []FaultFeatures {
	if len(faults) == 0 {
		return nil
	}
	feats := make([]FaultFeatures, len(faults))
	scoap := ComputeScoap(c)
	if workers < 1 {
		workers = 1
	}
	if workers > len(faults) {
		workers = len(faults)
	}
	var wg sync.WaitGroup
	chunk := (len(faults) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		if lo >= len(faults) {
			break
		}
		hi := min(lo+chunk, len(faults))
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			x := newFeatureExtractor(c, scoap)
			for i := lo; i < hi; i++ {
				feats[i] = x.extract(faults[i])
			}
		}(lo, hi)
	}
	wg.Wait()
	return feats
}
