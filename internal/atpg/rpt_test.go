package atpg

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"

	"atpgeasy/internal/decomp"
	"atpgeasy/internal/faultsim"
	"atpgeasy/internal/gen"
	"atpgeasy/internal/logic"
	"atpgeasy/internal/obs"
)

// detectsByVectors fault-simulates a vector set (chunked into 64-pattern
// batches) and reports, per fault, whether any vector detects it.
func detectsByVectors(t *testing.T, c *logic.Circuit, faults []Fault, vecs [][]bool) []bool {
	t.Helper()
	hit := make([]bool, len(faults))
	for lo := 0; lo < len(vecs); lo += 64 {
		hi := min(lo+64, len(vecs))
		words, err := faultsim.PackPatterns(c, vecs[lo:hi])
		if err != nil {
			t.Fatal(err)
		}
		sim, err := faultsim.NewSimulator(c, words, hi-lo)
		if err != nil {
			t.Fatal(err)
		}
		for i, f := range faults {
			if !hit[i] && sim.DetectsAny(f.Net, f.StuckAt) != 0 {
				hit[i] = true
			}
		}
	}
	return hit
}

// rptDetected reports, per fault, whether a finished run's pre-phase
// detected it: whether one of the kept random patterns
// (Vectors[:RPTVectors]) detects it under the reference simulator. That
// is exact: the pre-phase keeps a detecting pattern for every fault it
// detects, and a fault it leaves live is detected by none of its
// patterns.
func rptDetected(t *testing.T, c *logic.Circuit, faults []Fault, sum *Summary) []bool {
	t.Helper()
	hit := make([]bool, len(faults))
	kept := sum.Vectors[:sum.RPTVectors]
	for lo := 0; lo < len(kept); lo += 64 {
		batch := kept[lo:min(lo+64, len(kept))]
		words, err := faultsim.PackPatterns(c, batch)
		if err != nil {
			t.Fatal(err)
		}
		for i, f := range faults {
			if !hit[i] && faultsim.ReferenceDetects(c, words, len(batch), f.Net, f.StuckAt) != 0 {
				hit[i] = true
			}
		}
	}
	return hit
}

// TestRPTDeterminism: the same seed yields identical vector sets and
// summaries at any worker count — the RPT loop draws its patterns
// serially and each fault's detection mask is shard-independent.
func TestRPTDeterminism(t *testing.T) {
	for name, c := range parallelTestCircuits() {
		opt := RunOptions{
			Collapse: true, Dominance: true,
			RPTBatches: DefaultRPTBatches, Seed: 42,
		}
		var base *Summary
		for _, workers := range []int{1, 2, 4} {
			eng := &Engine{Workers: workers}
			sum, err := eng.Run(context.Background(), c, opt)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			if sum.DetectedByRPT == 0 {
				t.Errorf("%s workers=%d: RPT detected nothing", name, workers)
			}
			if base == nil {
				base = sum
				continue
			}
			if !reflect.DeepEqual(base.Vectors, sum.Vectors) {
				t.Errorf("%s workers=%d: vector set differs from workers=1", name, workers)
			}
			if base.DetectedByRPT != sum.DetectedByRPT || base.RPTBatches != sum.RPTBatches ||
				base.RPTVectors != sum.RPTVectors {
				t.Errorf("%s workers=%d: RPT stats (%d,%d,%d) vs (%d,%d,%d)", name, workers,
					sum.DetectedByRPT, sum.RPTBatches, sum.RPTVectors,
					base.DetectedByRPT, base.RPTBatches, base.RPTVectors)
			}
			if base.Detected != sum.Detected || base.Untestable != sum.Untestable || base.Aborted != sum.Aborted {
				t.Errorf("%s workers=%d: verdicts (D%d U%d A%d) vs (D%d U%d A%d)", name, workers,
					sum.Detected, sum.Untestable, sum.Aborted,
					base.Detected, base.Untestable, base.Aborted)
			}
			if len(base.Results) != len(sum.Results) {
				t.Fatalf("%s workers=%d: %d results vs %d", name, workers, len(sum.Results), len(base.Results))
			}
			for i := range base.Results {
				if base.Results[i].Fault != sum.Results[i].Fault || base.Results[i].Status != sum.Results[i].Status {
					t.Errorf("%s workers=%d: result %d differs: %v/%v vs %v/%v", name, workers, i,
						sum.Results[i].Fault, sum.Results[i].Status, base.Results[i].Fault, base.Results[i].Status)
				}
			}
		}
		// A different seed still converges to the same coverage.
		eng := &Engine{Workers: 2}
		opt.Seed = 1
		sum2, err := eng.Run(context.Background(), c, opt)
		if err != nil {
			t.Fatal(err)
		}
		if sum2.Coverage() != base.Coverage() {
			t.Errorf("%s: coverage %v under seed 1 vs %v under seed 42", name, sum2.Coverage(), base.Coverage())
		}
	}
}

// rptBatchItems runs the engine with a trace writer and returns the summary and
// the detection count of every emitted rpt-batch span, in emission order
// (the pre-phase is serial, so that is batch order).
func rptBatchItems(t *testing.T, c *logic.Circuit, workers int, opt RunOptions) (*Summary, []int64) {
	t.Helper()
	var trace bytes.Buffer
	tr := obs.NewTrace(&trace)
	opt.Telemetry = &Telemetry{Trace: tr}
	sum, err := (&Engine{Workers: workers}).Run(context.Background(), c, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	var items []int64
	for _, line := range bytes.Split(trace.Bytes(), []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var sp obs.SpanRecord
		if err := json.Unmarshal(line, &sp); err != nil {
			t.Fatalf("bad trace line %q: %v", line, err)
		}
		if sp.Name == "rpt-batch" {
			items = append(items, sp.Items)
		}
	}
	return sum, items
}

// TestRPTStopRule: the pre-phase checks its stop rule before every batch
// and simulates no batch past it, at any worker count. Decomposed cla16
// loses every collapsed fault to its first batch, so the phase stops
// after one; every counted batch emits exactly one rpt-batch span; and on
// random logic the per-batch detection counts end where the rule says —
// in exactly DefaultRPTIdleStop idle batches, in a batch that empties the
// live list, or at the RPTBatches cap.
func TestRPTStopRule(t *testing.T) {
	cla, err := decomp.Decompose(gen.CarryLookaheadAdder(16), 3)
	if err != nil {
		t.Fatal(err)
	}
	opt := RunOptions{
		Collapse: true, Dominance: true, DropDetected: true,
		RPTBatches: DefaultRPTBatches, Seed: 1,
	}
	for _, workers := range []int{1, 2, 4} {
		sum, items := rptBatchItems(t, cla, workers, opt)
		if sum.DetectedByRPT != sum.Total || sum.RPTBatches != 1 {
			t.Errorf("cla16 workers=%d: %d batches detected %d of %d faults, want 1 batch detecting all",
				workers, sum.RPTBatches, sum.DetectedByRPT, sum.Total)
		}
		if len(items) != sum.RPTBatches {
			t.Errorf("cla16 workers=%d: %d rpt-batch spans for %d batches", workers, len(items), sum.RPTBatches)
		}
	}

	rnd := gen.Random(gen.RandomParams{Inputs: 20, Gates: 200, Seed: 3})
	for _, batches := range []int{DefaultRPTBatches, 3} {
		opt.RPTBatches = batches
		for _, workers := range []int{1, 4} {
			sum, items := rptBatchItems(t, rnd, workers, opt)
			if len(items) != sum.RPTBatches {
				t.Fatalf("rand batches=%d workers=%d: %d rpt-batch spans for %d batches",
					batches, workers, len(items), sum.RPTBatches)
			}
			var detected int64
			idle := 0 // trailing batches that detected nothing
			for k, n := range items {
				if idle == DefaultRPTIdleStop {
					t.Errorf("rand batches=%d workers=%d: batch %d ran after %d idle batches (per-batch detections %v)",
						batches, workers, k+1, idle, items)
				}
				detected += n
				if n == 0 {
					idle++
				} else {
					idle = 0
				}
			}
			if detected != int64(sum.DetectedByRPT) {
				t.Errorf("rand batches=%d workers=%d: spans count %d detections, summary %d",
					batches, workers, detected, sum.DetectedByRPT)
			}
			emptied := detected == int64(sum.Total) && idle == 0
			if sum.RPTBatches > batches || idle != DefaultRPTIdleStop && !emptied && sum.RPTBatches != batches {
				t.Errorf("rand batches=%d workers=%d: %d batches stopped off the rule (per-batch detections %v)",
					batches, workers, sum.RPTBatches, items)
			}
		}
	}
}

// TestPhasesPartition: the per-phase durations are measured on disjoint
// code paths, so on a single worker they must sum to at most the wall
// time, and Build/Solve must equal the per-result sums exactly.
func TestPhasesPartition(t *testing.T) {
	c := gen.CarryLookaheadAdder(6)
	eng := &Engine{Workers: 1}
	sum, err := eng.Run(context.Background(), c, RunOptions{
		Collapse: true, Dominance: true, DropDetected: true,
		RPTBatches: 8, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	var build, solve int64
	for _, r := range sum.Results {
		build += r.BuildElapsed.Nanoseconds()
		solve += r.Elapsed.Nanoseconds()
	}
	if sum.Phases.Build.Nanoseconds() != build {
		t.Errorf("Phases.Build %d != sum of per-result build %d", sum.Phases.Build.Nanoseconds(), build)
	}
	if sum.Phases.Solve.Nanoseconds() != solve {
		t.Errorf("Phases.Solve %d != sum of per-result solve %d", sum.Phases.Solve.Nanoseconds(), solve)
	}
	if sum.Phases.RPT <= 0 {
		t.Error("Phases.RPT not measured")
	}
	total := sum.Phases.RPT + sum.Phases.Build + sum.Phases.Solve + sum.Phases.FaultSim
	if total > sum.WallElapsed {
		t.Errorf("serial phase sum %v exceeds wall time %v (phases double-count)", total, sum.WallElapsed)
	}
}

// TestRPTReducesSolverCalls: the pre-phase must keep coverage identical
// while cutting SAT solver invocations by well over half — the acceptance
// criterion of the TEGUS-style flow.
func TestRPTReducesSolverCalls(t *testing.T) {
	c := gen.CarryLookaheadAdder(8)
	base := RunOptions{Collapse: true, Dominance: true, Seed: 7}
	eng := &Engine{Workers: 2}
	off, err := eng.Run(context.Background(), c, base)
	if err != nil {
		t.Fatal(err)
	}
	on := base
	on.RPTBatches = DefaultRPTBatches
	sum, err := eng.Run(context.Background(), c, on)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Coverage() != off.Coverage() {
		t.Errorf("coverage with RPT %v, without %v", sum.Coverage(), off.Coverage())
	}
	if sum.Total != off.Total {
		t.Errorf("fault lists differ: %d vs %d", sum.Total, off.Total)
	}
	callsOn, callsOff := len(sum.Results), len(off.Results)
	if callsOn*2 > callsOff {
		t.Errorf("RPT left %d of %d solver calls (> 50%%)", callsOn, callsOff)
	}
	if callsOn+sum.DetectedByRPT != callsOff {
		t.Errorf("solver calls %d + RPT detections %d != %d faults", callsOn, sum.DetectedByRPT, callsOff)
	}
}

// TestRPTVectorSetCoversClaimedFaults: every fault the summary counts as
// covered (SAT-detected, RPT-detected, or drop-list) must actually be
// detected by the final vector set.
func TestRPTVectorSetCoversClaimedFaults(t *testing.T) {
	for name, c := range parallelTestCircuits() {
		faults := CollapseDominance(c, Collapse(c, AllFaults(c)))
		eng := &Engine{Workers: 4}
		sum, err := eng.RunFaults(context.Background(), c, faults, RunOptions{
			DropDetected: true, RPTBatches: DefaultRPTBatches, Seed: 9,
		})
		if err != nil {
			t.Fatal(err)
		}
		unresolved := make(map[Fault]bool)
		for _, r := range sum.Results {
			if r.Status != Detected {
				unresolved[r.Fault] = true
			}
		}
		hit := detectsByVectors(t, c, faults, sum.Vectors)
		for i, f := range faults {
			if unresolved[f] {
				continue
			}
			if !hit[i] {
				t.Errorf("%s: covered fault %s not detected by the final vector set", name, f.Name(c))
			}
		}
		if want := sum.Detected + sum.DetectedByRPT + sum.DroppedByFaultSim + sum.Untestable + sum.Aborted; want != sum.Total {
			t.Errorf("%s: verdicts %d do not partition %d faults", name, want, sum.Total)
		}
	}
}

// TestDominanceProperty exhaustively verifies the dominance relation on
// every pair CollapseDominance acts on: any input vector detecting the
// justifier must detect the dropped fault.
func TestDominanceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	circuits := []*logic.Circuit{
		gen.CarryLookaheadAdder(3),
		logic.Figure4a(),
	}
	for i := 0; i < 6; i++ {
		circuits = append(circuits, randomCircuit(rng, 30+5*i))
	}
	for _, c := range circuits {
		if len(c.Inputs) > 14 {
			t.Fatalf("%s: too many inputs (%d) for exhaustive check", c.Name, len(c.Inputs))
		}
		faults := Collapse(c, AllFaults(c))
		pairs := DominancePairs(c, faults)
		collapsed := CollapseDominance(c, faults)
		dropSet := make(map[Fault]bool)
		for _, p := range pairs {
			dropSet[p.Dropped] = true
		}
		if len(faults)-len(collapsed) != len(dropSet) {
			t.Errorf("%s: collapsed %d faults but %d distinct drops", c.Name, len(faults)-len(collapsed), len(dropSet))
		}
		for _, f := range collapsed {
			if dropSet[f] {
				t.Errorf("%s: dropped fault %s survived collapsing", c.Name, f.Name(c))
			}
		}
		nin := len(c.Inputs)
		for _, p := range pairs {
			for pat := 0; pat < 1<<uint(nin); pat++ {
				in := make([]bool, nin)
				for i := range in {
					in[i] = pat>>uint(i)&1 == 1
				}
				if VerifyTest(c, p.Justifier, in) && !VerifyTest(c, p.Dropped, in) {
					t.Fatalf("%s: vector %v detects justifier %s but not dominated %s",
						c.Name, in, p.Justifier.Name(c), p.Dropped.Name(c))
				}
			}
		}
	}
}

// TestDominanceEndToEnd: after a dominance-collapsed run, every dropped
// fault whose justifier was detected is itself detected by the final
// vector set — dominance never silently loses those faults.
func TestDominanceEndToEnd(t *testing.T) {
	c := gen.CarryLookaheadAdder(4)
	equiv := Collapse(c, AllFaults(c))
	pairs := DominancePairs(c, equiv)
	if len(pairs) == 0 {
		t.Fatal("no dominance pairs on cla4")
	}
	eng := &Engine{Workers: 2}
	sum, err := eng.Run(context.Background(), c, RunOptions{
		Collapse: true, Dominance: true, DropDetected: true,
		RPTBatches: DefaultRPTBatches, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	var justifiers, droppedFaults []Fault
	for _, p := range pairs {
		justifiers = append(justifiers, p.Justifier)
		droppedFaults = append(droppedFaults, p.Dropped)
	}
	jHit := detectsByVectors(t, c, justifiers, sum.Vectors)
	dHit := detectsByVectors(t, c, droppedFaults, sum.Vectors)
	for i, p := range pairs {
		if jHit[i] && !dHit[i] {
			t.Errorf("justifier %s detected but dominated %s missed by the test set",
				p.Justifier.Name(c), p.Dropped.Name(c))
		}
	}
}
