package atpg

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"atpgeasy/internal/gen"
	"atpgeasy/internal/logic"
	"atpgeasy/internal/obs"
)

// decodeTrace parses a JSONL trace into its records, failing the test on
// any line that is not a span.
func decodeTrace(t *testing.T, data []byte) []obs.SpanRecord {
	t.Helper()
	var spans []obs.SpanRecord
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if line == "" {
			continue
		}
		var sp obs.SpanRecord
		if err := json.Unmarshal([]byte(line), &sp); err != nil {
			t.Fatalf("trace line %q: %v", line, err)
		}
		if sp.Kind != "span" {
			t.Fatalf("trace line %q is not a span", line)
		}
		spans = append(spans, sp)
	}
	return spans
}

// TestTelemetryEndToEnd: a fully instrumented run must agree with its own
// summary — the /metrics verdict counters, the effort log's records by
// status, the trace's flush spans and the final progress snapshot all
// describe the same run, and the trace holds spans only. The retry arms
// abort every solver-bound fault's first two attempts and recover it at
// escalation tier 2, so each such fault is decided in place by its third
// attempt.
func TestTelemetryEndToEnd(t *testing.T) {
	retry := RunOptions{
		Collapse: true, DropDetected: true,
		PerFaultBudget: 10 * time.Millisecond, // tiers: 40ms, 160ms, 640ms
	}
	retryEngine := func(workers int) *Engine {
		return &Engine{Workers: workers, testHook: abortBelow(100 * time.Millisecond)}
	}
	arms := []struct {
		name string
		c    *logic.Circuit
		eng  *Engine
		opt  RunOptions
	}{
		{"grouped-j4", gen.ArrayMultiplier(4), &Engine{Workers: 4}, RunOptions{Collapse: true, DropDetected: true}},
		{"retry-j1", gen.CarryLookaheadAdder(4), retryEngine(1), retry},
		{"retry-j4", gen.CarryLookaheadAdder(4), retryEngine(4), retry},
	}
	for _, arm := range arms {
		t.Run(arm.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			m := NewMetrics(reg)
			var buf, effort bytes.Buffer
			tr := obs.NewTrace(&buf)
			el := NewEffortLog(&effort)
			var mu sync.Mutex
			var progresses []Progress
			opt := arm.opt
			opt.EffortLog = el
			opt.Telemetry = &Telemetry{
				Metrics:       m,
				Trace:         tr,
				ProgressEvery: time.Millisecond,
				OnProgress: func(p Progress) {
					mu.Lock()
					progresses = append(progresses, p)
					mu.Unlock()
				},
			}
			sum, err := arm.eng.Run(context.Background(), arm.c, opt)
			if err != nil {
				t.Fatal(err)
			}
			if err := tr.Close(); err != nil {
				t.Fatal(err)
			}
			if err := el.Close(); err != nil {
				t.Fatal(err)
			}
			if opt.PerFaultBudget > 0 && (len(sum.Retries) < 2 || sum.Aborted != 0) {
				t.Fatalf("retry arm: tiers %+v, %d aborted; want every fault recovered by tier 2", sum.Retries, sum.Aborted)
			}

			// The verdict counters move once per final verdict, so they
			// must match the summary exactly.
			type check struct {
				name      string
				got, want int64
			}
			checks := []check{
				{"faults_done", m.FaultsDone.Value(), int64(sum.Total)},
				{"detected", m.FaultsDetected.Value(), int64(sum.Detected)},
				{"untestable", m.FaultsUntestable.Value(), int64(sum.Untestable)},
				{"aborted", m.FaultsAborted.Value(), int64(sum.Aborted)},
				{"errored", m.FaultsErrored.Value(), int64(sum.Errors)},
				{"panics", m.FaultPanics.Value(), int64(sum.Errors)},
				{"dropped", m.FaultsDropped.Value(), int64(sum.DroppedByFaultSim)},
				{"vectors", m.Vectors.Value(), int64(len(sum.Vectors))},
				{"faults_gauge", m.FaultsTotal.Value(), int64(sum.Total)},
				{"workers_gauge", m.Workers.Value(), int64(arm.eng.Workers)},
				{"phase_faultsim_ns", m.PhaseFaultSimNS.Value(), sum.Phases.FaultSim.Nanoseconds()},
				// The work counters move once per adopted result, whose
				// work covers every escalated attempt, so they match the
				// summary's totals too.
				{"hist_solve_count", m.HistSolveNS.Count(), int64(len(sum.Results))},
				{"solver_decisions", m.SolverDecisions.Value(), sum.SolverTotals.Decisions},
				{"solver_propagations", m.SolverPropagations.Value(), sum.SolverTotals.Propagations},
				{"solver_conflicts", m.SolverConflicts.Value(), sum.SolverTotals.Conflicts},
				{"phase_solve_ns", m.PhaseSolveNS.Value(), sum.Phases.Solve.Nanoseconds()},
				{"phase_build_ns", m.PhaseBuildNS.Value(), sum.Phases.Build.Nanoseconds()},
			}
			for _, ck := range checks {
				if ck.got != ck.want {
					t.Errorf("metric %s = %d, want %d", ck.name, ck.got, ck.want)
				}
			}
			attempted, recovered := m.RetryAttempts.Values(), m.RetryRecovered.Values()
			for _, tier := range sum.Retries {
				label := strconv.Itoa(tier.Tier)
				if attempted[label] != int64(tier.Attempted) || recovered[label] != int64(tier.Recovered) {
					t.Errorf("tier %d: attempts %d recovered %d, summary %+v", tier.Tier, attempted[label], recovered[label], tier)
				}
			}

			// The effort log's non-wasted records, counted by status,
			// describe the same verdicts.
			_, recs, err := DecodeEffortLog(&effort)
			if err != nil {
				t.Fatal(err)
			}
			byStatus := map[string]int{}
			for _, r := range recs {
				if !r.Wasted {
					byStatus[r.Status]++
				}
			}
			want := map[string]int{
				"detected": sum.Detected + sum.DetectedByRPT, "untestable": sum.Untestable,
				"aborted": sum.Aborted, "error": sum.Errors, "dropped": sum.DroppedByFaultSim,
			}
			for status, n := range want {
				if byStatus[status] != n {
					t.Errorf("%d effort records with status %s, want %d", byStatus[status], status, n)
				}
			}
			if len(byStatus) > len(want) {
				t.Errorf("effort records by status %v, want only %v", byStatus, want)
			}

			// The trace holds spans only, and one flush span per Detected
			// vector the commit frontier adopted, escalated or not: their
			// items are the faults each vector dropped.
			flushes, flushDropped := 0, int64(0)
			for _, sp := range decodeTrace(t, buf.Bytes()) {
				if sp.Name != "flush" {
					continue
				}
				flushes++
				flushDropped += sp.Items
			}
			if flushDropped != int64(sum.DroppedByFaultSim) {
				t.Errorf("flush spans dropped %d faults, summary %d", flushDropped, sum.DroppedByFaultSim)
			}
			if flushes != sum.Detected {
				t.Errorf("%d flush spans for %d committed Detected vectors", flushes, sum.Detected)
			}

			// The final progress snapshot is always emitted and must agree
			// with the summary.
			mu.Lock()
			defer mu.Unlock()
			if len(progresses) == 0 {
				t.Fatal("no progress snapshots")
			}
			last := progresses[len(progresses)-1]
			if last.Done != sum.Total || last.Total != sum.Total {
				t.Errorf("final progress %d/%d, want %d/%d", last.Done, last.Total, sum.Total, sum.Total)
			}
			if last.Detected != sum.Detected || last.Aborted != sum.Aborted || last.Untestable != sum.Untestable {
				t.Errorf("final progress %+v, summary %d/%d/%d detected/untestable/aborted",
					last, sum.Detected, sum.Untestable, sum.Aborted)
			}
			if last.Coverage() != sum.Coverage() {
				t.Errorf("final progress coverage %v, summary %v", last.Coverage(), sum.Coverage())
			}
			if !strings.Contains(last.String(), "coverage") {
				t.Errorf("progress line %q", last.String())
			}
		})
	}
}

// TestProgressETA: the ETA reports remaining work while faults are still
// undecided and reads zero once the run is finished.
func TestProgressETA(t *testing.T) {
	p := Progress{Done: 8, Total: 10, Elapsed: 10 * time.Second}
	if eta := p.ETA(); eta <= 0 {
		t.Errorf("ETA = %v with %d of %d faults done, want > 0", eta, p.Done, p.Total)
	}
	done := Progress{Done: 10, Total: 10, Elapsed: 10 * time.Second}
	if eta := done.ETA(); eta != 0 {
		t.Errorf("ETA = %v on a finished run, want 0", eta)
	}
}

// TestSummaryPhases: the per-phase breakdown must be self-consistent —
// Build, Load and Solve equal the summed per-result times, Build is
// positive, every result's load is part of its build, and with fault
// dropping disabled nothing is dropped while FaultSim still counts the
// commit frontier's check of every Detected vector.
func TestSummaryPhases(t *testing.T) {
	c := gen.CarryLookaheadAdder(4)
	eng := &Engine{Workers: 2}
	sum, err := eng.Run(context.Background(), c, RunOptions{Collapse: true})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Phases.Build <= 0 {
		t.Errorf("Phases.Build = %v, want > 0", sum.Phases.Build)
	}
	if sum.Detected == 0 || sum.DroppedByFaultSim != 0 || sum.Phases.FaultSim <= 0 {
		t.Errorf("without DropDetected: %d detected, %d dropped, Phases.FaultSim = %v; want detections, no drops and the vector checks timed",
			sum.Detected, sum.DroppedByFaultSim, sum.Phases.FaultSim)
	}
	var build, load, solve time.Duration
	for _, r := range sum.Results {
		build += r.BuildElapsed
		load += r.LoadElapsed
		solve += r.Elapsed
		if r.LoadElapsed > r.BuildElapsed {
			t.Errorf("%s: LoadElapsed %v exceeds BuildElapsed %v", r.Fault.Name(c), r.LoadElapsed, r.BuildElapsed)
		}
	}
	if build != sum.Phases.Build {
		t.Errorf("summed BuildElapsed %v != Phases.Build %v", build, sum.Phases.Build)
	}
	if load != sum.Phases.Load || load <= 0 {
		t.Errorf("summed LoadElapsed %v, Phases.Load %v; want equal and positive", load, sum.Phases.Load)
	}
	if solve != sum.Phases.Solve {
		t.Errorf("summed Elapsed %v != Phases.Solve %v", solve, sum.Phases.Solve)
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
		if workers == 1 && sum.Phases.Solve > sum.WallElapsed {
			t.Errorf("serial run: summed SAT time %v exceeds wall time %v",
				sum.Phases.Solve, sum.WallElapsed)
		}
		if workers == 1 && sum.Phases.FrontierStall != 0 {
			t.Errorf("serial run: frontier stall %v, want 0", sum.Phases.FrontierStall)
		}
	}
}

// TestEngineCancelMidRun: cancelling the run context mid-sweep must
// reach the in-flight solves' Limits.Cancel and drain promptly with
// context.Canceled and a partial summary. The cancel fires once a few
// verdicts are journaled, so it always lands while most of mult8's
// faults are still undecided.
func TestEngineCancelMidRun(t *testing.T) {
	c := gen.ArrayMultiplier(8)
	eng := &Engine{Workers: 2}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sink := newRecordingSink()
	sink.cancel, sink.cancelAfter = cancel, 5
	type outcome struct {
		sum *Summary
		err error
	}
	done := make(chan outcome, 1)
	start := time.Now()
	go func() {
		sum, err := eng.Run(ctx, c, RunOptions{Collapse: true, Journal: sink})
		done <- outcome{sum, err}
	}()
	select {
	case out := <-done:
		if out.err != context.Canceled {
			t.Fatalf("err = %v, want context.Canceled", out.err)
		}
		if len(out.sum.Results) >= out.sum.Total {
			t.Fatalf("run decided all %d faults before the cancel", out.sum.Total)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled run did not drain")
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

// TestRecorderMatchesTraceTail: the flight recorder and the trace file
// are one record. Every span the run finished is a trace line, and the
// recorder's spans are, in order, the last lines of the same run's trace
// — at one worker and at four.
func TestRecorderMatchesTraceTail(t *testing.T) {
	c := gen.Random(gen.RandomParams{Inputs: 20, Gates: 200, Seed: 3})
	for _, workers := range []int{1, 4} {
		var buf bytes.Buffer
		tr := obs.NewTrace(&buf)
		_, err := (&Engine{Workers: workers}).Run(context.Background(), c, RunOptions{
			Collapse: true, DropDetected: true, RPTBatches: DefaultRPTBatches,
			Telemetry: &Telemetry{Trace: tr},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
		file := decodeTrace(t, buf.Bytes())
		if uint64(len(file)) != tr.Recorded() {
			t.Fatalf("workers=%d: %d trace lines for %d recorded spans", workers, len(file), tr.Recorded())
		}
		rec := tr.Snapshot()
		if len(rec) != 64 || len(file) <= len(rec) {
			t.Fatalf("workers=%d: recorder holds %d of %d spans, want the newest 64", workers, len(rec), len(file))
		}
		if tail := file[len(file)-len(rec):]; !reflect.DeepEqual(rec, tail) {
			t.Fatalf("workers=%d: recorder %+v\nis not the trace's tail %+v", workers, rec, tail)
		}
	}
}
