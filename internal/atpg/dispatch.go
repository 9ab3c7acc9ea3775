package atpg

// This file is the engine's contention-free dispatch layer: the atomic
// drop bitset shared by claims and flushes, and runPlan — the one loop
// every worker of the sweep runs.
// None of these paths take a lock: claims advance an atomic cursor and
// read drop bits, flushes set drop bits, and the deterministic commit
// frontier in engine.go is the only serialized section.

import (
	"context"
	"sync/atomic"
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

// runPlan is the engine's one dispatch loop, run by every worker of the
// sweep: the worker claims whole region groups off the sweep's cursor
// (one atomic add each) and solves each with solveGroup. Claims are
// lock-free.
func (e *Engine) runPlan(ctx context.Context, st *runState, worker int, ws *workerScratch) error {
	for ctx.Err() == nil {
		gi := int(st.cursor.Add(1) - 1)
		if gi >= len(st.groups) {
			return nil
		}
		if err := e.solveGroup(ctx, st, &st.groups[gi], ws, worker); err != nil {
			return err
		}
	}
	return nil
}
