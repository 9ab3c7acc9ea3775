package atpg

import (
	"context"
	"reflect"
	"testing"

	"atpgeasy/internal/gen"
	"atpgeasy/internal/sat"
)

// TestScratchReuseMatchesTestFault is the correctness gate for the
// per-worker arenas: a run that reuses one worker's arena across every
// fault must give the same per-fault verdicts and vectors as
// Engine.TestFault, which solves each fault on a throwaway scratch. For
// Simple the search itself must match too; for Caching node counts may
// shift — a reused table keeps its grown capacity across faults and so
// evicts less — but verdicts and vectors never depend on cache
// behavior, because cache hits only prune UNSAT subtrees.
func TestScratchReuseMatchesTestFault(t *testing.T) {
	for cname, c := range parallelTestCircuits() {
		for sname, solver := range map[string]sat.Solver{
			"caching": &sat.Caching{},
			"simple":  &sat.Simple{},
		} {
			eng := &Engine{Solver: solver, VerifyTests: true, Workers: 1}
			faults := Collapse(c, AllFaults(c))
			sum, err := eng.RunFaults(context.Background(), c, faults, RunOptions{})
			if err != nil {
				t.Fatalf("%s/%s: %v", cname, sname, err)
			}
			if len(sum.Results) != len(faults) {
				t.Fatalf("%s/%s: %d results for %d faults", cname, sname, len(sum.Results), len(faults))
			}
			_, hasCache := solver.(*sat.Caching)
			for k, r := range sum.Results {
				want, err := eng.TestFault(c, faults[k])
				if err != nil {
					t.Fatalf("%s/%s: TestFault(%s): %v", cname, sname, faults[k].Name(c), err)
				}
				if r.Fault != want.Fault || r.Status != want.Status || !reflect.DeepEqual(r.Vector, want.Vector) {
					t.Fatalf("%s/%s: fault %s: run %v %v, TestFault %v %v", cname, sname,
						faults[k].Name(c), r.Status, r.Vector, want.Status, want.Vector)
				}
				if !hasCache && (r.SolverStats.Nodes != want.SolverStats.Nodes ||
					r.SolverStats.Decisions != want.SolverStats.Decisions) {
					t.Errorf("%s/%s: fault %s stats diverge: run %+v vs TestFault %+v", cname, sname,
						r.Fault.Name(c), r.SolverStats, want.SolverStats)
				}
			}
		}
	}
}

// TestScratchReuseWithDropAndCacheLimit exercises the arena path together
// with fault dropping (shared simulator scratch) and a per-worker cache
// budget, in parallel, under the race detector in CI.
func TestScratchReuseWithDropAndCacheLimit(t *testing.T) {
	c := gen.Random(gen.RandomParams{Inputs: 10, Gates: 60, Seed: 7})
	e := &Engine{Solver: &sat.Caching{CacheLimit: 1 << 16}, VerifyTests: true, Workers: 4}
	sum, err := e.Run(context.Background(), c, RunOptions{
		Collapse:     true,
		DropDetected: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Aborted != 0 {
		t.Errorf("aborted = %d, want 0", sum.Aborted)
	}
	if cov := sum.Coverage(); cov < 0.99 {
		t.Errorf("coverage = %v, want ~1", cov)
	}
	for _, r := range sum.Results {
		if r.SolverStats.CacheBytes > 1<<16 {
			t.Fatalf("fault %s: CacheBytes %d exceeds the %d-byte limit",
				r.Fault.Name(c), r.SolverStats.CacheBytes, 1<<16)
		}
	}
}
