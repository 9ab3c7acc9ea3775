package atpg

// This file is the engine's resilience layer: the checkpoint/resume
// plumbing (the journal itself lives in internal/checkpoint) and the
// escalation constants for faults that exhaust PerFaultBudget. The
// in-place escalation itself and the per-fault panic barrier are
// solveGroup's (incremental.go).

import (
	"fmt"
	"hash/fnv"
	"time"

	"atpgeasy/internal/logic"
)

// Budget escalation: a fault that exhausts its budget is solved again up
// to RetryTiers times, each with RetryBackoff times the previous budget,
// so it gets up to 1+4+16+64 = 85x the base budget before it is finally
// reported aborted.
const (
	RetryTiers   = 3
	RetryBackoff = 4
)

// JournalSink receives a run's durable progress: every fault's final
// solver verdict as it is decided. *checkpoint.Journal implements it;
// the indirection keeps the engine free of a persistence dependency.
type JournalSink interface {
	RecordFault(i int, status string, vector []bool, errMsg string)
}

// ResumeState is a previous run's journaled progress, replayed into a
// new run via RunOptions.Resume. Fault indices refer to the current
// fault list — callers must verify the list matches the journaled run
// (CheckpointFingerprint) before resuming.
type ResumeState struct {
	// Faults maps fault-list index to its final verdict; only Status,
	// Vector and Err are meaningful on the Results.
	Faults map[int]Result
}

// RetryTier summarizes one escalation tier: how many committed results
// were solved again at its budget, and how many of them it decided.
type RetryTier struct {
	Tier      int           `json:"tier"`
	Budget    time.Duration `json:"budget_ns"`
	Attempted int           `json:"attempted"`
	Recovered int           `json:"recovered"`
}

// CheckpointFingerprint hashes everything that determines a run's
// verdict/vector identity — circuit, exact fault list, seed and the
// deterministic run options — so a journal from a different run is
// rejected instead of silently mis-applied. The pre-phase's idle stop is
// hashed too: it was once a run option, and journals written at its
// default, DefaultRPTIdleStop, still resume. With DropDetected the drop
// rule is hashed too, so journals written under batched drops are
// refused. Worker count and budgets are deliberately excluded: verdicts
// are worker-independent, and budgets only move faults between decided
// and aborted.
func CheckpointFingerprint(c *logic.Circuit, faults []Fault, opt RunOptions) uint64 {
	h := fnv.New64a()
	// The "inc|" segment is a fixed marker: it once told region-grouped
	// journals from those of a since-removed fresh-DPLL path, and stays
	// so journals written before that path was removed still resume.
	// GroupMax is excluded: vectors and verdicts are identical for every
	// group-size cap.
	fmt.Fprintf(h, "%s|%d|%d|%d|%d|%t|inc|", c.Name, len(c.Inputs),
		opt.Seed, opt.RPTBatches, DefaultRPTIdleStop, opt.DropDetected)
	if opt.DropDetected {
		fmt.Fprint(h, "exact-drop|")
	}
	for _, f := range faults {
		fmt.Fprintf(h, "%d:%t;", f.Net, f.StuckAt)
	}
	return h.Sum64()
}

// applyResume publishes each journaled verdict into its fault's slot,
// for the commit frontier to adopt at the fault's plan position.
func (st *runState) applyResume(rs *ResumeState) {
	if rs == nil {
		return
	}
	for i, r := range rs.Faults {
		if i < 0 || i >= len(st.results) {
			continue
		}
		st.published[i].Store(&specResult{res: r, worker: -1})
		st.resumed[i] = true
	}
}
