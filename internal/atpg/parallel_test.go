package atpg

import (
	"context"
	"testing"
	"time"

	"atpgeasy/internal/gen"
	"atpgeasy/internal/logic"
)

func parallelTestCircuits() map[string]*logic.Circuit {
	return map[string]*logic.Circuit{
		"rand": gen.Random(gen.RandomParams{Inputs: 10, Gates: 60, Seed: 7}),
		"cla":  gen.CarryLookaheadAdder(4),
		"mult": gen.ArrayMultiplier(3),
	}
}

// TestParallelMatchesSerialNoDrop: without fault dropping every fault is
// solved independently, so a parallel run must reproduce the serial run
// exactly — same per-fault statuses in the same (fault-list) order.
func TestParallelMatchesSerialNoDrop(t *testing.T) {
	for name, c := range parallelTestCircuits() {
		serial := &Engine{Workers: 1}
		par := &Engine{Workers: 4}
		opt := RunOptions{Collapse: true}
		ss, err := serial.Run(context.Background(), c, opt)
		if err != nil {
			t.Fatalf("%s serial: %v", name, err)
		}
		ps, err := par.Run(context.Background(), c, opt)
		if err != nil {
			t.Fatalf("%s parallel: %v", name, err)
		}
		if ss.Detected != ps.Detected || ss.Untestable != ps.Untestable || ss.Aborted != ps.Aborted {
			t.Errorf("%s: serial (D%d U%d A%d) vs parallel (D%d U%d A%d)", name,
				ss.Detected, ss.Untestable, ss.Aborted, ps.Detected, ps.Untestable, ps.Aborted)
		}
		if ss.Coverage() != ps.Coverage() {
			t.Errorf("%s: coverage %v vs %v", name, ss.Coverage(), ps.Coverage())
		}
		if len(ss.Results) != len(ps.Results) {
			t.Fatalf("%s: %d vs %d results", name, len(ss.Results), len(ps.Results))
		}
		for i := range ss.Results {
			if ss.Results[i].Fault != ps.Results[i].Fault {
				t.Fatalf("%s: result %d fault order differs: %v vs %v", name, i,
					ss.Results[i].Fault, ps.Results[i].Fault)
			}
			if ss.Results[i].Status != ps.Results[i].Status {
				t.Errorf("%s: fault %s status %v vs %v", name,
					ss.Results[i].Fault.Name(c), ss.Results[i].Status, ps.Results[i].Status)
			}
		}
	}
}

// TestParallelMatchesSerialWithDrop: with DropDetected the detected/
// dropped split depends on worker timing, but the aggregate verdicts do
// not: every testable fault ends up detected or dropped, so
// Detected+Dropped, Untestable and Coverage must agree with the serial
// run.
func TestParallelMatchesSerialWithDrop(t *testing.T) {
	for name, c := range parallelTestCircuits() {
		serial := &Engine{Workers: 1}
		par := &Engine{Workers: 4}
		opt := RunOptions{Collapse: true, DropDetected: true}
		ss, err := serial.Run(context.Background(), c, opt)
		if err != nil {
			t.Fatalf("%s serial: %v", name, err)
		}
		ps, err := par.Run(context.Background(), c, opt)
		if err != nil {
			t.Fatalf("%s parallel: %v", name, err)
		}
		if ss.Untestable != ps.Untestable || ss.Aborted != ps.Aborted {
			t.Errorf("%s: untestable/aborted differ: (%d,%d) vs (%d,%d)", name,
				ss.Untestable, ss.Aborted, ps.Untestable, ps.Aborted)
		}
		if sc, pc := ss.Detected+ss.DroppedByFaultSim, ps.Detected+ps.DroppedByFaultSim; sc != pc {
			t.Errorf("%s: detected+dropped %d vs %d", name, sc, pc)
		}
		if ss.Coverage() != ps.Coverage() {
			t.Errorf("%s: coverage %v vs %v", name, ss.Coverage(), ps.Coverage())
		}
	}
}

// TestParallelResultsInFaultOrder: Results and Vectors must come back in
// fault-list order regardless of worker completion order.
func TestParallelResultsInFaultOrder(t *testing.T) {
	c := gen.CarryLookaheadAdder(4)
	faults := Collapse(c, AllFaults(c))
	pos := make(map[Fault]int, len(faults))
	for i, f := range faults {
		pos[f] = i
	}
	eng := &Engine{Workers: 4}
	sum, err := eng.RunFaults(context.Background(), c, faults, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	last := -1
	vecs := 0
	for _, r := range sum.Results {
		i, ok := pos[r.Fault]
		if !ok {
			t.Fatalf("result for unknown fault %v", r.Fault)
		}
		if i <= last {
			t.Fatalf("results out of fault-list order: index %d after %d", i, last)
		}
		last = i
		if r.Status == Detected {
			if vecs >= len(sum.Vectors) {
				t.Fatal("fewer vectors than detected results")
			}
			vecs++
		}
	}
	if vecs != len(sum.Vectors) {
		t.Errorf("%d vectors for %d detected results", len(sum.Vectors), vecs)
	}
}

// TestPerFaultBudgetAborts: an expired per-fault budget must turn every
// solver call into a prompt Aborted, not a hang.
func TestPerFaultBudgetAborts(t *testing.T) {
	c := gen.ArrayMultiplier(4)
	eng := &Engine{Workers: 2}
	done := make(chan *Summary, 1)
	errc := make(chan error, 1)
	go func() {
		sum, err := eng.Run(context.Background(), c, RunOptions{Collapse: true, PerFaultBudget: time.Nanosecond})
		if err != nil {
			errc <- err
			return
		}
		done <- sum
	}()
	select {
	case err := <-errc:
		t.Fatal(err)
	case sum := <-done:
		if sum.Aborted == 0 {
			t.Fatalf("no aborts under a 1ns budget: %+v", sum)
		}
		if sum.Detected != 0 {
			t.Errorf("detected %d faults under a 1ns budget", sum.Detected)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run did not terminate under a tiny per-fault budget")
	}
}

// TestRunFaultsCancelledContext: a cancelled context drains the run
// immediately with ctx.Err() and a partial (possibly empty) summary, and
// cancellation is not misreported as per-fault aborts.
func TestRunFaultsCancelledContext(t *testing.T) {
	c := gen.CarryLookaheadAdder(8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	eng := &Engine{Workers: 4}
	sum, err := eng.Run(ctx, c, RunOptions{Collapse: true, DropDetected: true})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if sum == nil {
		t.Fatal("no partial summary returned")
	}
	if len(sum.Results) != 0 || sum.Aborted != 0 {
		t.Errorf("pre-cancelled run recorded %d results, %d aborts", len(sum.Results), sum.Aborted)
	}
}

// TestParallelVerifiesVectors: every vector from a racy parallel run must
// still detect its fault (the extract pipeline is worker-local).
func TestParallelVerifiesVectors(t *testing.T) {
	c := gen.Random(gen.RandomParams{Inputs: 9, Gates: 50, Seed: 11})
	eng := &Engine{Workers: 4}
	sum, err := eng.Run(context.Background(), c, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range sum.Results {
		if r.Status == Detected && !VerifyTest(c, r.Fault, r.Vector) {
			t.Errorf("vector for %s does not verify", r.Fault.Name(c))
		}
	}
}
