package atpg_test

import (
	"context"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"atpgeasy/internal/atpg"
	"atpgeasy/internal/checkpoint"
	"atpgeasy/internal/gen"
)

// quotaSink forwards verdicts to a real on-disk journal until its quota
// is exhausted, then drops everything — the observable shape of a
// journal whose writes started failing stickily mid-run (the checkpoint
// layer degrades to a no-op after the first write error). Once dry it
// cancels the run, modeling the operator killing a run whose
// checkpointing has gone dark.
type quotaSink struct {
	mu     sync.Mutex
	j      *checkpoint.Journal
	quota  int
	cancel context.CancelFunc
}

func (q *quotaSink) RecordFault(i int, status string, vector []bool, errMsg string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.quota <= 0 {
		q.cancel()
		return
	}
	q.quota--
	q.j.RecordFault(i, status, vector, errMsg)
}

// TestStickyJournalLossThenResume drives the full durability stack —
// engine, checkpoint file, the journal's resume conversion — through a
// journal that stops persisting mid-run: the verdicts that did land on
// disk must replay, the lost tail must be re-solved, and the finished
// run must match an uninterrupted one byte for byte. This is the
// engine-level half of the daemon's crash contract, with the journal
// (not the process) as the failing component.
func TestStickyJournalLossThenResume(t *testing.T) {
	c := gen.Random(gen.RandomParams{Inputs: 20, Gates: 200, Seed: 3})
	faults := atpg.CollapseDominance(c, atpg.Collapse(c, atpg.AllFaults(c)))
	opt := atpg.RunOptions{RPTBatches: atpg.DefaultRPTBatches, Seed: 42}

	baseline, err := (&atpg.Engine{Workers: 4}).RunFaults(context.Background(), c, faults, opt)
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}

	// Degraded run: the on-disk journal accepts only the first few fault
	// verdicts, then goes dark and the run is cancelled.
	path := filepath.Join(t.TempDir(), "ckpt")
	journal, rs, err := checkpoint.Open(path, false, c, faults, opt, checkpoint.Options{})
	if err != nil {
		t.Fatalf("open journal: %v", err)
	}
	if rs != nil {
		t.Fatal("fresh journal produced a resume state")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sink := &quotaSink{j: journal, quota: 5, cancel: cancel}
	iopt := opt
	iopt.Journal = sink
	if _, err := (&atpg.Engine{Workers: 4}).RunFaults(ctx, c, faults, iopt); err == nil {
		t.Fatal("degraded run finished before its journal went dark")
	}
	if err := journal.Close(); err != nil {
		t.Fatalf("close journal: %v", err)
	}

	// Resume from what actually reached disk. The journal must replay
	// exactly the quota of fault verdicts; the run must re-run the
	// pre-phase, re-solve the rest and land on the baseline's vectors.
	journal2, rs, err := checkpoint.Open(path, true, c, faults, opt, checkpoint.Options{})
	if err != nil {
		t.Fatalf("reopen journal: %v", err)
	}
	if rs == nil || len(rs.Faults) != 5 {
		t.Fatalf("journal replayed %+v, want the 5 fault verdicts that landed", rs)
	}
	ropt := opt
	ropt.Resume = rs
	ropt.Journal = journal2
	resumed, err := (&atpg.Engine{Workers: 4}).RunFaults(context.Background(), c, faults, ropt)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if err := journal2.Close(); err != nil {
		t.Fatalf("close resumed journal: %v", err)
	}

	if !reflect.DeepEqual(resumed.Vectors, baseline.Vectors) {
		t.Fatalf("resumed vectors diverge: %d vs baseline %d", len(resumed.Vectors), len(baseline.Vectors))
	}
	if resumed.Detected != baseline.Detected || resumed.Untestable != baseline.Untestable ||
		resumed.RPTBatches != baseline.RPTBatches || resumed.RPTVectors != baseline.RPTVectors {
		t.Fatalf("resumed counts detected=%d untestable=%d rpt %d batches/%d vectors, baseline %d, %d, %d/%d",
			resumed.Detected, resumed.Untestable, resumed.RPTBatches, resumed.RPTVectors,
			baseline.Detected, baseline.Untestable, baseline.RPTBatches, baseline.RPTVectors)
	}

	// The completed journal now holds every verdict: a further resume
	// replays the whole run without touching a solver.
	st, err := checkpoint.Load(path)
	if err != nil {
		t.Fatalf("load completed journal: %v", err)
	}
	full, err := checkpoint.Replay(st, c, faults)
	if err != nil {
		t.Fatalf("convert completed journal: %v", err)
	}
	if len(full.Faults) != len(baseline.Results) {
		t.Fatalf("completed journal has %d fault verdicts, run had %d solver results",
			len(full.Faults), len(baseline.Results))
	}
	// The journal holds no pre-phase record: with drops off, its verdicts
	// and the pre-phase's detections partition the list.
	byRPT := 0
	for i, hit := range atpg.RPTDetected(t, c, faults, baseline) {
		if _, journaled := full.Faults[i]; hit == journaled {
			t.Fatalf("fault %d: detected by the pre-phase %t, journaled %t", i, hit, journaled)
		}
		if hit {
			byRPT++
		}
	}
	if byRPT != baseline.DetectedByRPT {
		t.Fatalf("kept random patterns detect %d faults, the run counted %d", byRPT, baseline.DetectedByRPT)
	}
}
