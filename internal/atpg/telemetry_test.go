package atpg

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"atpgeasy/internal/gen"
	"atpgeasy/internal/obs"
	"atpgeasy/internal/sat"
)

// decodeTrace parses a JSONL buffer into events.
func decodeTrace(t *testing.T, buf *bytes.Buffer) []TraceEvent {
	t.Helper()
	var evs []TraceEvent
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if line == "" {
			continue
		}
		var ev TraceEvent
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("trace line %q: %v", line, err)
		}
		evs = append(evs, ev)
	}
	return evs
}

// TestTelemetryEndToEnd: a fully instrumented run must agree with its own
// summary — metrics counters, trace events and the final progress
// snapshot all describe the same run.
func TestTelemetryEndToEnd(t *testing.T) {
	c := gen.ArrayMultiplier(4)
	reg := obs.NewRegistry()
	m := NewMetrics(reg, 4)
	var buf bytes.Buffer
	tr := obs.NewTrace(&buf)
	var mu sync.Mutex
	var progresses []Progress
	tel := &Telemetry{
		Metrics:       m,
		Trace:         tr,
		ProgressEvery: time.Millisecond,
		OnProgress: func(p Progress) {
			mu.Lock()
			progresses = append(progresses, p)
			mu.Unlock()
		},
	}
	eng := &Engine{VerifyTests: true, Workers: 4}
	sum, err := eng.Run(context.Background(), c, RunOptions{
		Collapse: true, DropDetected: true, Telemetry: tel,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	// Metrics must match the summary exactly.
	checks := []struct {
		name string
		got  int64
		want int64
	}{
		{"faults_done", m.FaultsDone.Value(), int64(sum.Total)},
		{"detected", m.FaultsDetected.Value(), int64(sum.Detected)},
		{"untestable", m.FaultsUntestable.Value(), int64(sum.Untestable)},
		{"aborted", m.FaultsAborted.Value(), int64(sum.Aborted)},
		{"dropped", m.FaultsDropped.Value(), int64(sum.DroppedByFaultSim)},
		{"vectors", m.Vectors.Value(), int64(len(sum.Vectors))},
		{"solver_nodes", m.SolverNodes.Value(), sum.SolverTotals.Nodes},
		{"solver_decisions", m.SolverDecisions.Value(), sum.SolverTotals.Decisions},
		{"solver_propagations", m.SolverPropagations.Value(), sum.SolverTotals.Propagations},
		{"solver_conflicts", m.SolverConflicts.Value(), sum.SolverTotals.Conflicts},
		{"phase_solve_ns", m.PhaseSolveNS.Value(), sum.Phases.Solve.Nanoseconds()},
		{"phase_build_ns", m.PhaseBuildNS.Value(), sum.Phases.Build.Nanoseconds()},
		{"phase_faultsim_ns", m.PhaseFaultSimNS.Value(), sum.Phases.FaultSim.Nanoseconds()},
		{"hist_solve_count", m.HistSolveNS.Count(), int64(len(sum.Results))},
		{"faults_gauge", m.FaultsTotal.Value(), int64(sum.Total)},
		{"workers_gauge", m.Workers.Value(), 4},
	}
	for _, ck := range checks {
		if ck.got != ck.want {
			t.Errorf("metric %s = %d, want %d", ck.name, ck.got, ck.want)
		}
	}

	// The trace must carry exactly one "fault" event per fault: solved
	// faults from their worker, dropped faults from the flush that killed
	// them.
	evs := decodeTrace(t, &buf)
	faultEvents := map[string]int{}
	flushes := 0
	for _, ev := range evs {
		switch ev.Kind {
		case "fault":
			faultEvents[ev.Fault]++
			if ev.Status == "" {
				t.Errorf("fault event without status: %+v", ev)
			}
			if ev.Status != "dropped" && ev.Solver == nil {
				t.Errorf("solved fault event without solver stats: %+v", ev)
			}
		case "faultsim":
			flushes++
			if ev.Batch <= 0 {
				t.Errorf("flush with batch %d", ev.Batch)
			}
		default:
			t.Errorf("unknown event kind %q", ev.Kind)
		}
	}
	if len(faultEvents) != sum.Total {
		t.Errorf("%d distinct fault events, want %d", len(faultEvents), sum.Total)
	}
	for name, n := range faultEvents {
		if n != 1 {
			t.Errorf("fault %s traced %d times", name, n)
		}
	}
	if sum.DroppedByFaultSim > 0 && flushes == 0 {
		t.Error("faults were dropped but no faultsim event was traced")
	}

	// The final progress snapshot is always emitted and must agree with
	// the summary.
	mu.Lock()
	defer mu.Unlock()
	if len(progresses) == 0 {
		t.Fatal("no progress snapshots")
	}
	last := progresses[len(progresses)-1]
	if last.Done != sum.Total || last.Total != sum.Total {
		t.Errorf("final progress %d/%d, want %d/%d", last.Done, last.Total, sum.Total, sum.Total)
	}
	if last.Coverage() != sum.Coverage() {
		t.Errorf("final progress coverage %v, summary %v", last.Coverage(), sum.Coverage())
	}
	if !strings.Contains(last.String(), "coverage") {
		t.Errorf("progress line %q", last.String())
	}
}

// TestSummaryPhases: the per-phase breakdown must be self-consistent —
// Solve equals the summed SAT time, Build is positive, and with fault
// dropping disabled FaultSim is zero.
func TestSummaryPhases(t *testing.T) {
	c := gen.CarryLookaheadAdder(4)
	eng := &Engine{Workers: 2}
	sum, err := eng.Run(context.Background(), c, RunOptions{Collapse: true})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Phases.Solve != sum.Elapsed {
		t.Errorf("Phases.Solve %v != Elapsed %v", sum.Phases.Solve, sum.Elapsed)
	}
	if sum.Phases.Build <= 0 {
		t.Errorf("Phases.Build = %v, want > 0", sum.Phases.Build)
	}
	if sum.Phases.FaultSim != 0 {
		t.Errorf("Phases.FaultSim = %v without DropDetected", sum.Phases.FaultSim)
	}
	var build time.Duration
	for _, r := range sum.Results {
		build += r.BuildElapsed
	}
	if build != sum.Phases.Build {
		t.Errorf("summed BuildElapsed %v != Phases.Build %v", build, sum.Phases.Build)
	}
}

// TestWallElapsedMonotonic: WallElapsed must be positive and bound every
// per-fault solve interval under both serial and parallel runs; under -j 1
// the summed SAT time can never exceed the wall clock, and the commit
// frontier never stalls (no result is ever published ahead of it).
func TestWallElapsedMonotonic(t *testing.T) {
	c := gen.ArrayMultiplier(4)
	for _, workers := range []int{1, 4} {
		eng := &Engine{Workers: workers}
		sum, err := eng.Run(context.Background(), c, RunOptions{Collapse: true})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if sum.WallElapsed <= 0 {
			t.Fatalf("workers=%d: WallElapsed = %v", workers, sum.WallElapsed)
		}
		for _, r := range sum.Results {
			if r.Elapsed > sum.WallElapsed {
				t.Errorf("workers=%d: fault %s solve %v exceeds wall %v",
					workers, r.Fault.Name(c), r.Elapsed, sum.WallElapsed)
			}
		}
		if workers == 1 && sum.Elapsed > sum.WallElapsed {
			t.Errorf("serial run: summed SAT time %v exceeds wall time %v",
				sum.Elapsed, sum.WallElapsed)
		}
		if workers == 1 && sum.Phases.FrontierStall != 0 {
			t.Errorf("serial run: frontier stall %v, want 0", sum.Phases.FrontierStall)
		}
	}
}

// TestCachingSolverCancelMidRun: cancelling the run context must reach
// the Caching solver's Limits.Cancel check mid-search and drain promptly
// (PR 1 covered the deadline path; this is the cancel-channel path
// threaded through the engine).
func TestCachingSolverCancelMidRun(t *testing.T) {
	c := gen.ArrayMultiplier(5)
	eng := &Engine{Solver: &sat.Caching{}, Workers: 2}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		_, err := eng.Run(ctx, c, RunOptions{Collapse: true})
		done <- err
	}()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled Caching run did not drain")
	}
	if e := time.Since(start); e > 20*time.Second {
		t.Errorf("drain took %v", e)
	}
}

// TestTelemetryProgressOnly: a telemetry config with only a progress
// callback (no metrics, no trace) must work and fire the final snapshot.
func TestTelemetryProgressOnly(t *testing.T) {
	c := gen.CarryLookaheadAdder(4)
	var mu sync.Mutex
	calls := 0
	tel := &Telemetry{OnProgress: func(Progress) { mu.Lock(); calls++; mu.Unlock() }}
	eng := &Engine{Workers: 2}
	if _, err := eng.Run(context.Background(), c, RunOptions{Collapse: true, Telemetry: tel}); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if calls == 0 {
		t.Error("OnProgress never called")
	}
}
