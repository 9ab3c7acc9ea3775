package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeBench(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "BENCH_atpg.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const fam = "BenchmarkParallelATPG"

func TestPassingFamily(t *testing.T) {
	path := writeBench(t, `[
		{"name": "BenchmarkParallelATPG/mult8/workers-1", "ns_per_op": 100e6, "workers": 1, "cpus": 4},
		{"name": "BenchmarkParallelATPG/mult8/workers-4", "ns_per_op": 40e6, "workers": 4, "cpus": 4}
	]`)
	var out strings.Builder
	if err := run(path, fam, 1.25, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "2.50x") {
		t.Fatalf("expected recomputed 2.50x speedup in output, got:\n%s", out.String())
	}
}

func TestFailingFamily(t *testing.T) {
	// Flat scaling: workers-4 barely faster than workers-1. One healthy
	// family must not mask the regressed one.
	path := writeBench(t, `[
		{"name": "BenchmarkParallelATPG/mult8/workers-1", "ns_per_op": 100e6, "workers": 1, "cpus": 4},
		{"name": "BenchmarkParallelATPG/mult8/workers-4", "ns_per_op": 95e6, "workers": 4, "cpus": 4},
		{"name": "BenchmarkParallelATPG/cla32/workers-1", "ns_per_op": 100e6, "workers": 1, "cpus": 4},
		{"name": "BenchmarkParallelATPG/cla32/workers-4", "ns_per_op": 30e6, "workers": 4, "cpus": 4}
	]`)
	var out strings.Builder
	err := run(path, fam, 1.25, &out)
	if err == nil {
		t.Fatalf("expected failure for flat family, got pass:\n%s", out.String())
	}
	if !strings.Contains(err.Error(), "1 of 2") {
		t.Fatalf("expected '1 of 2 families' in error, got: %v", err)
	}
}

func TestSpeedupRecomputedFromNs(t *testing.T) {
	// A stale speedup_vs_workers1 field must be ignored: the gate trusts
	// only the raw ns/op.
	path := writeBench(t, `[
		{"name": "BenchmarkParallelATPG/mult8/workers-1", "ns_per_op": 100e6, "workers": 1, "cpus": 4},
		{"name": "BenchmarkParallelATPG/mult8/workers-4", "ns_per_op": 99e6, "workers": 4, "cpus": 4, "speedup_vs_workers1": 3.0}
	]`)
	if err := run(path, fam, 1.25, &strings.Builder{}); err == nil {
		t.Fatal("expected failure: stored speedup field should not override ns ratio")
	}
}

func TestSkipsSingleCPURows(t *testing.T) {
	path := writeBench(t, `[
		{"name": "BenchmarkParallelATPG/mult8/workers-1", "ns_per_op": 100e6, "workers": 1, "cpus": 1},
		{"name": "BenchmarkParallelATPG/mult8/workers-4", "ns_per_op": 120e6, "workers": 4, "cpus": 1}
	]`)
	var out strings.Builder
	if err := run(path, fam, 1.25, &out); err != nil {
		t.Fatalf("single-CPU rows must be skipped, not failed: %v", err)
	}
	if !strings.Contains(out.String(), "skip") {
		t.Fatalf("expected a skip note, got:\n%s", out.String())
	}
}

func TestIgnoresOtherWorkerCountsAndFamilies(t *testing.T) {
	// workers-2 rows and unrelated benchmarks must not form families.
	path := writeBench(t, `[
		{"name": "BenchmarkParallelATPG/mult8/workers-2", "ns_per_op": 60e6, "workers": 2, "cpus": 4},
		{"name": "BenchmarkTelemetryOverhead/off", "ns_per_op": 50e6, "workers": 4, "cpus": 4},
		{"name": "BenchmarkParallelATPG/mult8/workers-1", "ns_per_op": 100e6, "workers": 1, "cpus": 4},
		{"name": "BenchmarkParallelATPG/mult8/workers-4", "ns_per_op": 50e6, "workers": 4, "cpus": 4}
	]`)
	var out strings.Builder
	if err := run(path, fam, 1.25, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	if strings.Contains(out.String(), "TelemetryOverhead") {
		t.Fatalf("unrelated benchmark leaked into the gate:\n%s", out.String())
	}
}

func TestNoFamiliesIsAnError(t *testing.T) {
	path := writeBench(t, `[
		{"name": "BenchmarkCachingSolver/hashed", "ns_per_op": 1e6}
	]`)
	if err := run(path, fam, 1.25, &strings.Builder{}); err == nil {
		t.Fatal("expected error when no scaling families exist")
	}
	// Incomplete family (missing workers-4) is also no gate.
	path = writeBench(t, `[
		{"name": "BenchmarkParallelATPG/mult8/workers-1", "ns_per_op": 100e6, "workers": 1, "cpus": 4}
	]`)
	if err := run(path, fam, 1.25, &strings.Builder{}); err == nil {
		t.Fatal("expected error when the family has no workers-4 row")
	}
}

func TestMissingAndMalformedFile(t *testing.T) {
	if err := run(filepath.Join(t.TempDir(), "nope.json"), fam, 1.25, &strings.Builder{}); err == nil {
		t.Fatal("expected error for missing file")
	}
	path := writeBench(t, `{not json`)
	if err := run(path, fam, 1.25, &strings.Builder{}); err == nil {
		t.Fatal("expected error for malformed JSON")
	}
}

const effortFam = "BenchmarkEffortLogOverhead"

func TestEffortOverheadWithinCap(t *testing.T) {
	path := writeBench(t, `[
		{"name": "BenchmarkEffortLogOverhead/off", "ns_per_op": 100e6, "workers": 4, "cpus": 4},
		{"name": "BenchmarkEffortLogOverhead/on", "ns_per_op": 102e6, "workers": 4, "cpus": 4}
	]`)
	var out strings.Builder
	if err := runOverhead(path, effortFam, 1.03, &out); err != nil {
		t.Fatalf("2%% overhead must pass a 3%% cap: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "2.0%") {
		t.Fatalf("expected the measured overhead in output, got:\n%s", out.String())
	}
}

func TestEffortOverheadExceedsCap(t *testing.T) {
	path := writeBench(t, `[
		{"name": "BenchmarkEffortLogOverhead/off", "ns_per_op": 100e6, "workers": 4, "cpus": 4},
		{"name": "BenchmarkEffortLogOverhead/on", "ns_per_op": 110e6, "workers": 4, "cpus": 4}
	]`)
	err := runOverhead(path, effortFam, 1.03, &strings.Builder{})
	if err == nil {
		t.Fatal("10% overhead must fail a 3% cap")
	}
	if !strings.Contains(err.Error(), "overhead") {
		t.Fatalf("error %v does not name the overhead gate", err)
	}
}

const incFam = "BenchmarkIncrementalCDCL"

func TestIncrementalWithinCap(t *testing.T) {
	// Incremental faster on one circuit, marginally slower on the other —
	// both within the 1.05 cap. Single-CPU rows still gate: the ratio is a
	// same-machine comparison.
	path := writeBench(t, `[
		{"name": "BenchmarkIncrementalCDCL/mult16/fresh", "ns_per_op": 100e6, "workers": 1, "cpus": 1},
		{"name": "BenchmarkIncrementalCDCL/mult16/incremental", "ns_per_op": 60e6, "workers": 1, "cpus": 1},
		{"name": "BenchmarkIncrementalCDCL/rand200/fresh", "ns_per_op": 50e6, "workers": 1, "cpus": 1},
		{"name": "BenchmarkIncrementalCDCL/rand200/incremental", "ns_per_op": 52e6, "workers": 1, "cpus": 1}
	]`)
	var out strings.Builder
	if err := runIncremental(path, incFam, 1.05, &out); err != nil {
		t.Fatalf("within-cap pairs must pass: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "0.60x") || !strings.Contains(out.String(), "1.04x") {
		t.Fatalf("expected recomputed ratios in output, got:\n%s", out.String())
	}
}

func TestIncrementalExceedsCap(t *testing.T) {
	// One healthy pair must not mask the regressed one.
	path := writeBench(t, `[
		{"name": "BenchmarkIncrementalCDCL/mult16/fresh", "ns_per_op": 100e6, "workers": 1, "cpus": 1},
		{"name": "BenchmarkIncrementalCDCL/mult16/incremental", "ns_per_op": 60e6, "workers": 1, "cpus": 1},
		{"name": "BenchmarkIncrementalCDCL/rand200/fresh", "ns_per_op": 50e6, "workers": 1, "cpus": 1},
		{"name": "BenchmarkIncrementalCDCL/rand200/incremental", "ns_per_op": 60e6, "workers": 1, "cpus": 1}
	]`)
	err := runIncremental(path, incFam, 1.05, &strings.Builder{})
	if err == nil {
		t.Fatal("1.20x regression must fail a 1.05 cap")
	}
	if !strings.Contains(err.Error(), "1 of 2") {
		t.Fatalf("expected '1 of 2' pairs in error, got: %v", err)
	}
}

func TestIncrementalSkipsAndHalfPairs(t *testing.T) {
	// No pairs at all: a note, not a failure (the bench step may not have
	// run the family).
	missing := writeBench(t, `[
		{"name": "BenchmarkParallelATPG/mult8/workers-1", "ns_per_op": 100e6, "workers": 1, "cpus": 4}
	]`)
	var out strings.Builder
	if err := runIncremental(missing, incFam, 1.05, &out); err != nil {
		t.Fatalf("absent family must be skipped: %v", err)
	}
	if !strings.Contains(out.String(), "skip") {
		t.Fatalf("expected a skip note, got:\n%s", out.String())
	}
	// A half-recorded pair is a broken bench run, not absent evidence.
	half := writeBench(t, `[
		{"name": "BenchmarkIncrementalCDCL/mult16/fresh", "ns_per_op": 100e6, "workers": 1, "cpus": 1}
	]`)
	if err := runIncremental(half, incFam, 1.05, &strings.Builder{}); err == nil {
		t.Fatal("half-recorded pair must fail")
	}
}

func TestEffortOverheadSkips(t *testing.T) {
	// Missing rows and single-CPU measurements are notes, not failures.
	missing := writeBench(t, `[
		{"name": "BenchmarkParallelATPG/mult8/workers-1", "ns_per_op": 100e6, "workers": 1, "cpus": 4}
	]`)
	var out strings.Builder
	if err := runOverhead(missing, effortFam, 1.03, &out); err != nil {
		t.Fatalf("missing pair must be skipped: %v", err)
	}
	if !strings.Contains(out.String(), "skip") {
		t.Fatalf("expected a skip note, got:\n%s", out.String())
	}
	oneCPU := writeBench(t, `[
		{"name": "BenchmarkEffortLogOverhead/off", "ns_per_op": 100e6, "workers": 4, "cpus": 1},
		{"name": "BenchmarkEffortLogOverhead/on", "ns_per_op": 150e6, "workers": 4, "cpus": 1}
	]`)
	out.Reset()
	if err := runOverhead(oneCPU, effortFam, 1.03, &out); err != nil {
		t.Fatalf("single-CPU pair must be skipped: %v", err)
	}
	if !strings.Contains(out.String(), "skip") {
		t.Fatalf("expected a skip note, got:\n%s", out.String())
	}
}

// TestEveryGateRuns: on a ledger that fails the worker-scaling and the
// effort-log gates, checkAll still runs the incremental gate, prints all
// three verdicts and counts two failures — a failing gate never hides
// the ones after it.
func TestEveryGateRuns(t *testing.T) {
	path := writeBench(t, `[
		{"name": "BenchmarkParallelATPG/mult8/workers-1", "ns_per_op": 100e6, "workers": 1, "cpus": 4},
		{"name": "BenchmarkParallelATPG/mult8/workers-4", "ns_per_op": 95e6, "workers": 4, "cpus": 4},
		{"name": "BenchmarkEffortLogOverhead/off", "ns_per_op": 100e6, "workers": 1, "cpus": 4},
		{"name": "BenchmarkEffortLogOverhead/on", "ns_per_op": 110e6, "workers": 1, "cpus": 4},
		{"name": "BenchmarkIncrementalCDCL/mult16/fresh", "ns_per_op": 100e6, "workers": 1, "cpus": 4},
		{"name": "BenchmarkIncrementalCDCL/mult16/incremental", "ns_per_op": 80e6, "workers": 1, "cpus": 4}
	]`)
	gates := []func(io.Writer) error{
		func(out io.Writer) error { return run(path, fam, 1.25, out) },
		func(out io.Writer) error { return runOverhead(path, "BenchmarkEffortLogOverhead", 1.03, out) },
		func(out io.Writer) error { return runIncremental(path, "BenchmarkIncrementalCDCL", 1.05, out) },
	}
	var out, errOut strings.Builder
	if failed := checkAll(gates, &out, &errOut); failed != 2 {
		t.Fatalf("%d gates failed, want 2:\n%s%s", failed, out.String(), errOut.String())
	}
	for _, want := range []string{"FAIL BenchmarkParallelATPG/mult8", "FAIL BenchmarkEffortLogOverhead", "ok   BenchmarkIncrementalCDCL/mult16"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("verdicts lack %q:\n%s", want, out.String())
		}
	}
	if n := strings.Count(errOut.String(), "scalecheck: "); n != 2 {
		t.Errorf("%d failures reported, want 2:\n%s", n, errOut.String())
	}
}
