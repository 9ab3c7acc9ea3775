package atpgeasy

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"atpgeasy/internal/gen"
	"atpgeasy/internal/logic"
)

func TestFacadeQuickstart(t *testing.T) {
	b := NewBuilder("demo")
	x := b.Input("x")
	y := b.Input("y")
	b.MarkOutput(b.Gate(And, "g", x, y))
	c := b.MustBuild()
	res, err := GenerateTest(c, Fault{Net: c.MustLookup("g"), StuckAt: false})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Detected {
		t.Fatalf("status = %v", res.Status)
	}
	if !VerifyTest(c, res.Fault, res.Vector) {
		t.Error("vector does not verify")
	}
}

func TestFacadeRunATPG(t *testing.T) {
	c := gen.RippleAdder(4)
	sum, err := RunATPG(c)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Coverage() != 1 {
		t.Errorf("coverage = %v", sum.Coverage())
	}
	if sum.Aborted != 0 {
		t.Errorf("aborted = %d", sum.Aborted)
	}
}

func TestFacadeRunATPGParallel(t *testing.T) {
	c := gen.CarryLookaheadAdder(8)
	sum, err := RunATPGParallel(context.Background(), c, 4, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Coverage() != 1 {
		t.Errorf("coverage = %v", sum.Coverage())
	}
	if sum.Aborted != 0 {
		t.Errorf("aborted = %d under a generous budget", sum.Aborted)
	}
	if sum.WallElapsed <= 0 {
		t.Error("WallElapsed not recorded")
	}
	if sum.DetectedByRPT == 0 || sum.RPTBatches == 0 {
		t.Errorf("random-pattern pre-phase inactive by default: rpt=%d batches=%d",
			sum.DetectedByRPT, sum.RPTBatches)
	}
	// Serial reference must agree on the aggregate verdicts.
	ref, err := RunATPGParallel(context.Background(), c, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Untestable != sum.Untestable || ref.Detected+ref.DroppedByFaultSim != sum.Detected+sum.DroppedByFaultSim {
		t.Errorf("parallel (D%d+S%d U%d) disagrees with serial (D%d+S%d U%d)",
			sum.Detected, sum.DroppedByFaultSim, sum.Untestable,
			ref.Detected, ref.DroppedByFaultSim, ref.Untestable)
	}
}

// TestFacadeRunATPGParallelRetries checks that RunATPGParallel runs the
// standard flow's retry tiers: under a 1 ns budget the solver-bound
// faults abort in the sweep and in every tier, so Summary.Retries holds
// RetryTiers tiers, each with RetryBackoff times the previous
// tier's budget.
func TestFacadeRunATPGParallelRetries(t *testing.T) {
	c := gen.Random(gen.RandomParams{Inputs: 18, Gates: 200, Seed: 1})
	sum, err := RunATPGParallel(context.Background(), c, 2, time.Nanosecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Retries) != RetryTiers {
		t.Fatalf("%d retry tiers under a 1ns budget, want %d (aborted %d)",
			len(sum.Retries), RetryTiers, sum.Aborted)
	}
	budget := time.Nanosecond
	for _, rt := range sum.Retries {
		budget *= RetryBackoff
		if rt.Budget != budget || rt.Attempted == 0 {
			t.Errorf("tier %d: budget %v over %d faults, want %v over some", rt.Tier, rt.Budget, rt.Attempted, budget)
		}
	}
}

// cancelSink forwards verdicts to a journal and cancels the run once n
// of them have landed: the in-process stand-in for a run killed
// mid-sweep. The engine journals one verdict at a time.
type cancelSink struct {
	JournalSink
	n      int
	cancel context.CancelFunc
}

func (s *cancelSink) RecordFault(i int, status string, vector []bool, errMsg string) {
	s.JournalSink.RecordFault(i, status, vector, errMsg)
	if s.n--; s.n == 0 {
		s.cancel()
	}
}

// TestFacadeCheckpointResume journals a default-flow run through
// OpenCheckpoint, cancels it mid-sweep, resumes it through
// OpenCheckpoint and requires the uninterrupted run's vectors and
// pre-phase.
func TestFacadeCheckpointResume(t *testing.T) {
	c := gen.Comparator(48)
	faults := CollapseFaults(c, AllFaults(c))
	opt := DefaultRunOptions()
	eng := &Engine{Workers: 2}
	base, err := eng.RunFaults(context.Background(), c, faults, opt)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.ckpt")
	j, rs, err := OpenCheckpoint(path, true, c, faults, opt, CheckpointOptions{})
	if err != nil || rs != nil {
		t.Fatalf("opening a missing journal: resume state %+v, err %v; want a fresh start", rs, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	iopt := opt
	iopt.Journal = &cancelSink{JournalSink: j, n: 3, cancel: cancel}
	if _, err := eng.RunFaults(ctx, c, faults, iopt); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run returned %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j, rs, err = OpenCheckpoint(path, true, c, faults, opt, CheckpointOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rs == nil || len(rs.Faults) < 3 || len(rs.Faults) >= len(base.Results) {
		t.Fatalf("resume state %+v, want some but not all of %d verdicts", rs, len(base.Results))
	}
	ropt := opt
	ropt.Journal, ropt.Resume = j, rs
	got, err := eng.RunFaults(context.Background(), c, faults, ropt)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Vectors, base.Vectors) || got.RPTBatches != base.RPTBatches || got.RPTVectors != base.RPTVectors {
		t.Fatalf("resumed run: %d vectors, pre-phase %d batches/%d kept; uninterrupted %d, %d/%d",
			len(got.Vectors), got.RPTBatches, got.RPTVectors, len(base.Vectors), base.RPTBatches, base.RPTVectors)
	}
	st, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Faults) != len(base.Results) {
		t.Fatalf("the completed journal holds %d verdicts, want %d", len(st.Faults), len(base.Results))
	}
}

func TestFacadeSolversAgree(t *testing.T) {
	c := logic.Figure4a()
	f, err := EncodeATPG(c, Fault{Net: c.MustLookup("f"), StuckAt: true})
	if err != nil {
		t.Fatal(err)
	}
	d := NewDPLL().Solve(f)
	s := NewSimple(nil).Solve(f)
	k := NewCaching(nil).Solve(f)
	if d.Status != s.Status || s.Status != k.Status {
		t.Errorf("solver disagreement: %v %v %v", d.Status, s.Status, k.Status)
	}
}

func TestFacadeWidthPipeline(t *testing.T) {
	c := gen.RippleAdder(8)
	w, order := EstimateCutWidth(c)
	if w <= 0 || len(order) != c.NumNodes() {
		t.Fatalf("w=%d len(order)=%d", w, len(order))
	}
	faults := CollapseFaults(c, AllFaults(c))
	points, err := WidthProfile(c, faults)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := ClassifyWidthGrowth(points)
	if err != nil {
		t.Fatal(err)
	}
	if len(cl.Curves) == 0 {
		t.Error("no fitted curves")
	}
	if Theorem41Bound(10, 1, 2) != 160 {
		t.Error("Theorem41Bound re-export broken")
	}
}

func TestFacadeIORoundTrip(t *testing.T) {
	c := gen.Comparator(3)
	var benchOut, blifOut strings.Builder
	if err := WriteBench(&benchOut, c); err != nil {
		t.Fatal(err)
	}
	if err := WriteBLIF(&blifOut, c); err != nil {
		t.Fatal(err)
	}
	cb, err := ReadBench(strings.NewReader(benchOut.String()), "cmp3")
	if err != nil {
		t.Fatal(err)
	}
	cl, err := ReadBLIF(strings.NewReader(blifOut.String()))
	if err != nil {
		t.Fatal(err)
	}
	m, err := Decompose(c, 3)
	if err != nil {
		t.Fatal(err)
	}
	for pat := 0; pat < 64; pat++ {
		in := make([]bool, 6)
		for i := range in {
			in[i] = pat>>uint(i)&1 == 1
		}
		want := c.SimulateOutputs(in)
		for name, got := range map[string][]bool{
			"bench":  cb.SimulateOutputs(in),
			"blif":   cl.SimulateOutputs(in),
			"decomp": m.SimulateOutputs(in),
		} {
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: pattern %06b output %d differs", name, pat, i)
				}
			}
		}
	}
}

func TestFacadeGenerateTestBounded(t *testing.T) {
	c := logic.Figure4a()
	res, err := GenerateTestBounded(c, Fault{Net: c.MustLookup("f"), StuckAt: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Detected {
		t.Fatalf("status = %v", res.Status)
	}
	if !VerifyTest(c, Fault{Net: c.MustLookup("f"), StuckAt: true}, res.Vector) {
		t.Error("vector does not verify")
	}
	if res.MiterWidth > 2*res.CircuitWidth+2 {
		t.Errorf("miter width %d breaks the Lemma 4.2 bound for W=%d", res.MiterWidth, res.CircuitWidth)
	}
	if float64(res.Nodes) > 4*res.NodeBound {
		t.Errorf("nodes %d exceed 4× the Theorem 4.1 bound %g", res.Nodes, res.NodeBound)
	}
}
