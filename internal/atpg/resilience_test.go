package atpg

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"atpgeasy/internal/decomp"
	"atpgeasy/internal/gen"
	"atpgeasy/internal/logic"
	"atpgeasy/internal/obs"
)

// recordingSink is a JournalSink capturing verdicts in memory and
// counting the RecordFault calls per fault index, with an optional
// context cancel fired once `cancelAfter` fault verdicts have landed —
// simulating a run killed mid-flight.
type recordingSink struct {
	mu          sync.Mutex
	cancel      context.CancelFunc
	cancelAfter int
	faults      map[int]Result
	faultCalls  map[int]int
}

func newRecordingSink() *recordingSink {
	return &recordingSink{faults: make(map[int]Result), faultCalls: make(map[int]int)}
}

func (s *recordingSink) RecordFault(i int, status string, vector []bool, errMsg string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := ParseStatus(status)
	if !ok {
		panic("journal sink got unknown status " + status)
	}
	s.faults[i] = Result{Status: st, Vector: append([]bool(nil), vector...), Err: errMsg}
	s.faultCalls[i]++
	if s.cancel != nil && len(s.faults) >= s.cancelAfter {
		s.cancel()
	}
}

func (s *recordingSink) state() *ResumeState {
	s.mu.Lock()
	defer s.mu.Unlock()
	fs := make(map[int]Result, len(s.faults))
	for i, r := range s.faults {
		fs[i] = r
	}
	return &ResumeState{Faults: fs}
}

// TestPanicIsolation injects a panic into one fault's processing and
// requires the run to survive it: every other fault gets its verdict,
// the panicked fault reports status "error", Summary.Errors counts it,
// and its effort record carries the panic message plus a captured stack.
func TestPanicIsolation(t *testing.T) {
	c := gen.CarryLookaheadAdder(4)
	faults := Collapse(c, AllFaults(c))
	victim := faults[len(faults)/2]

	var buf bytes.Buffer
	el := NewEffortLog(&buf)
	reg := obs.NewRegistry()
	met := NewMetrics(reg)
	eng := &Engine{Workers: 2}
	eng.testHook = func(f Fault, _ time.Duration) bool {
		if f == victim {
			panic("injected cone explosion")
		}
		return false
	}
	sum, err := eng.RunFaults(context.Background(), c, faults, RunOptions{
		Telemetry: &Telemetry{Metrics: met},
		EffortLog: el,
	})
	if err != nil {
		t.Fatalf("RunFaults: %v", err)
	}
	if sum.Errors != 1 {
		t.Fatalf("Summary.Errors = %d, want 1", sum.Errors)
	}
	if got := sum.Detected + sum.Untestable + sum.Aborted + sum.Errors; got != sum.Total {
		t.Fatalf("faults lost to the panic: %d accounted of %d", got, sum.Total)
	}
	if met.FaultPanics.Value() != 1 {
		t.Fatalf("atpg_fault_panics_total = %d, want 1", met.FaultPanics.Value())
	}
	var errored *Result
	for i := range sum.Results {
		if sum.Results[i].Status == Errored {
			errored = &sum.Results[i]
		}
	}
	if errored == nil {
		t.Fatal("no Errored result in the summary")
	}
	if !strings.Contains(errored.Err, "injected cone explosion") {
		t.Fatalf("Result.Err = %q", errored.Err)
	}
	if !strings.Contains(errored.Stack, "goroutine") {
		t.Fatalf("Result.Stack missing a goroutine stack: %.80q", errored.Stack)
	}
	if err := el.Close(); err != nil {
		t.Fatalf("effort log close: %v", err)
	}
	_, recs, err := DecodeEffortLog(&buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	var found bool
	for _, r := range recs {
		if r.Status == "error" {
			found = true
			if r.Fault != victim.Name(c) || !strings.Contains(r.Err, "injected cone explosion") || !strings.Contains(r.Stack, "goroutine") {
				t.Fatalf("error effort record lacks panic context: %+v", r)
			}
		}
	}
	if !found {
		t.Fatal("no status:error record in the effort log")
	}
}

// abortBelow returns a test hook that reports a member Aborted in place
// of its solve whenever the per-fault budget is set and below need —
// making "this fault needs a bigger budget" deterministic instead of
// wall-clock-dependent.
func abortBelow(need time.Duration) func(Fault, time.Duration) bool {
	return func(_ Fault, budget time.Duration) bool { return budget > 0 && budget < need }
}

// recordedOnce fails the test unless the sink saw every fault index at
// most once.
func (s *recordingSink) recordedOnce(t *testing.T, what string) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, n := range s.faultCalls {
		if n > 1 {
			t.Errorf("%s: fault %d journaled %d times", what, i, n)
		}
	}
}

// TestJournalRecordsEachVerdictOnce: the engine journals each solver
// verdict once and nothing else — the property that lets the checkpoint
// journal stay append-only, with no superseded record to compact away.
// It holds with dropping on, with aborts (forced by the hook) that
// in-place escalation recovers, at 1 and 4 workers, and across a cancel
// followed by a resume, whose journal continues the cancelled run's
// without repeating any of its records.
func TestJournalRecordsEachVerdictOnce(t *testing.T) {
	c := gen.Random(gen.RandomParams{Inputs: 20, Gates: 200, Seed: 3})
	faults := CollapseDominance(c, Collapse(c, AllFaults(c)))
	// With the pre-phase off the sweep gets the detectable faults, so its
	// vectors drop others.
	opt := RunOptions{
		DropDetected: true, Seed: 42,
		PerFaultBudget: 10 * time.Millisecond, // tiers: 40ms, 160ms, 640ms
	}
	for _, workers := range []int{1, 4} {
		name := "workers=" + itoa(workers)
		// The hook aborts the faults on even nets below a 100ms budget:
		// their tier-2 attempts decide them, between the others.
		abort := abortBelow(100 * time.Millisecond)
		eng := func() *Engine {
			return &Engine{Workers: workers, testHook: func(f Fault, budget time.Duration) bool {
				return f.Net%2 == 0 && abort(f, budget)
			}}
		}
		full := newRecordingSink()
		fopt := opt
		fopt.Journal = full
		sum, err := eng().RunFaults(context.Background(), c, faults, fopt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(sum.Retries) < 2 || sum.Retries[1].Recovered == 0 || sum.Aborted != 0 || sum.DroppedByFaultSim == 0 {
			t.Fatalf("%s: tiers %+v, %d aborted, %d dropped; want drops and aborts recovered by tier 2",
				name, sum.Retries, sum.Aborted, sum.DroppedByFaultSim)
		}
		full.recordedOnce(t, name)
		if len(full.faults) != len(sum.Results) {
			t.Errorf("%s: %d journaled faults, want %d", name, len(full.faults), len(sum.Results))
		}

		ctx, cancel := context.WithCancel(context.Background())
		cut := newRecordingSink()
		cut.cancel, cut.cancelAfter = cancel, 5
		copt := opt
		copt.Journal = cut
		_, err = eng().RunFaults(ctx, c, faults, copt)
		cancel()
		if err != context.Canceled {
			t.Fatalf("%s: cancelled run returned %v", name, err)
		}
		cut.recordedOnce(t, name+" cancelled")
		rest := newRecordingSink()
		ropt := opt
		ropt.Journal, ropt.Resume = rest, cut.state()
		if _, err := eng().RunFaults(context.Background(), c, faults, ropt); err != nil {
			t.Fatalf("%s resume: %v", name, err)
		}
		rest.recordedOnce(t, name+" resumed")
		for i := range rest.faultCalls {
			if cut.faultCalls[i] > 0 {
				t.Errorf("%s: fault %d journaled by the cancelled run and again by the resume", name, i)
			}
		}
	}
}

// TestFaultPanicDumpsRecorder: the run's first fault panic prints the
// flight recorder to stderr — the newest spans, one line each — so a
// failure deep into a long run is diagnosable after the fact. The hook
// panics on the run's first solve attempt.
func TestFaultPanicDumpsRecorder(t *testing.T) {
	c := gen.ArrayMultiplier(7)
	var panicked atomic.Bool
	eng := &Engine{Workers: 1}
	eng.testHook = func(Fault, time.Duration) bool {
		if panicked.CompareAndSwap(false, true) {
			panic("injected panic on the first solve")
		}
		return false
	}
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	captured := make(chan []byte)
	go func() {
		data, _ := io.ReadAll(r)
		captured <- data
	}()
	saved := os.Stderr
	os.Stderr = w
	sum, runErr := eng.Run(context.Background(), c, RunOptions{})
	os.Stderr = saved
	w.Close()
	stderr := <-captured
	r.Close()
	if runErr != nil {
		t.Fatal(runErr)
	}
	if sum.Errors == 0 {
		t.Fatal("no Errored result after the injected panic")
	}
	for _, want := range []string{"fault panic recovered", "flight recorder:"} {
		if !bytes.Contains(stderr, []byte(want)) {
			t.Errorf("stderr lacks %q:\n%s", want, stderr)
		}
	}
	// One line per recorded span: "+T w<worker> <name> dur=…".
	if !regexp.MustCompile(`(?m)^  \+[0-9.]+ms w[0-9]+ \S+ +dur=`).Match(stderr) {
		t.Errorf("stderr lacks a flight-recorder span line:\n%s", stderr)
	}
}

// TestRetryTiersRecoverAbortedFaults runs with a budget every fault
// "exceeds" until the second escalation tier, and requires escalation to
// decide all of them — with the per-tier story in Summary.Retries and
// the labeled metrics.
func TestRetryTiersRecoverAbortedFaults(t *testing.T) {
	c := gen.CarryLookaheadAdder(4)
	faults := Collapse(c, AllFaults(c))
	reg := obs.NewRegistry()
	met := NewMetrics(reg)
	eng := &Engine{Workers: 2, testHook: abortBelow(100 * time.Millisecond)}
	sink := newRecordingSink()
	sum, err := eng.RunFaults(context.Background(), c, faults, RunOptions{
		PerFaultBudget: 10 * time.Millisecond, // tiers: 40ms, 160ms, 640ms
		Telemetry:      &Telemetry{Metrics: met},
		Journal:        sink,
	})
	if err != nil {
		t.Fatalf("RunFaults: %v", err)
	}
	if sum.Aborted != 0 {
		t.Fatalf("Aborted = %d after retries, want 0", sum.Aborted)
	}
	if len(sum.Retries) < 2 {
		t.Fatalf("Retries = %+v, want at least 2 tiers", sum.Retries)
	}
	// Faults decided without a solver call (structurally unobservable)
	// never abort, so the tiers see the solver-bound population.
	t1, t2 := sum.Retries[0], sum.Retries[1]
	if t1.Tier != 1 || t1.Attempted == 0 || t1.Recovered != 0 {
		t.Fatalf("tier 1 = %+v, want attempts and no recoveries", t1)
	}
	if t2.Tier != 2 || t2.Attempted != t1.Attempted || t2.Recovered != t2.Attempted {
		t.Fatalf("tier 2 = %+v, want all %d recovered", t2, t1.Attempted)
	}
	if got := met.RetryRecovered.Values(); got["2"] != int64(t2.Recovered) || got["1"] != 0 {
		t.Fatalf("atpg_retry_recovered_total = %v", got)
	}
	if got := met.RetryAttempts.Values(); got["1"] != int64(t1.Attempted) || got["2"] != int64(t2.Attempted) {
		t.Fatalf("atpg_retry_attempts_total = %v", got)
	}
	// Only final verdicts reach the journal, each exactly once.
	if len(sink.faults) != sum.Total {
		t.Fatalf("journal has %d verdicts for %d faults", len(sink.faults), sum.Total)
	}
	for i, r := range sink.faults {
		if r.Status == Aborted {
			t.Fatalf("fault %d journaled as aborted despite recovery", i)
		}
	}
	// The budget gate is deterministic, so the recovered run must decide
	// exactly what an unbudgeted run decides.
	plain, err := (&Engine{Workers: 2}).RunFaults(context.Background(), c, faults, RunOptions{})
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	if sum.Detected != plain.Detected || sum.Untestable != plain.Untestable {
		t.Fatalf("retried verdicts diverge: got %d/%d, want %d/%d",
			sum.Detected, sum.Untestable, plain.Detected, plain.Untestable)
	}
	if !reflect.DeepEqual(sum.Vectors, plain.Vectors) {
		t.Fatal("retried vector set differs from the unbudgeted run")
	}
}

// TestBudgetedRunMatchesUnbudgeted: a budgeted run whose aborts all
// recover must equal the unbudgeted run, drops included. The hook aborts
// every solver-bound fault's first two attempts, so each is decided in
// place by its tier-2 attempt and commits at its own plan position,
// where its vector drops exactly what it drops without a budget — with
// the pre-phase on (the comparator) and off (the multiplier), at 1 and
// 4 workers.
func TestBudgetedRunMatchesUnbudgeted(t *testing.T) {
	arms := []struct {
		name string
		c    *logic.Circuit
		rpt  int
	}{
		{"cmp48", gen.Comparator(48), DefaultRPTBatches},
		{"mult6-rpt0", gen.ArrayMultiplier(6), 0},
	}
	for _, arm := range arms {
		opt := DefaultRunOptions()
		opt.RPTBatches = arm.rpt
		for _, workers := range []int{1, 4} {
			name := arm.name + " workers=" + itoa(workers)
			plain, err := (&Engine{Workers: workers}).Run(context.Background(), arm.c, opt)
			if err != nil {
				t.Fatalf("%s unbudgeted: %v", name, err)
			}
			bopt := opt
			bopt.PerFaultBudget = 10 * time.Millisecond // tiers: 40ms, 160ms, 640ms
			eng := &Engine{Workers: workers, testHook: abortBelow(100 * time.Millisecond)}
			sum, err := eng.Run(context.Background(), arm.c, bopt)
			if err != nil {
				t.Fatalf("%s budgeted: %v", name, err)
			}
			if plain.DroppedByFaultSim == 0 {
				t.Fatalf("%s: the unbudgeted run drops nothing; the arm tests no drop", name)
			}
			if !reflect.DeepEqual(sum.Vectors, plain.Vectors) || sum.Detected != plain.Detected ||
				sum.Untestable != plain.Untestable || sum.DroppedByFaultSim != plain.DroppedByFaultSim || sum.Aborted != 0 {
				t.Fatalf("%s: budgeted run has %d vectors, %d detected, %d untestable, %d dropped, %d aborted; unbudgeted %d, %d, %d, %d, 0",
					name, len(sum.Vectors), sum.Detected, sum.Untestable, sum.DroppedByFaultSim, sum.Aborted,
					len(plain.Vectors), plain.Detected, plain.Untestable, plain.DroppedByFaultSim)
			}
			if len(sum.Retries) != 2 {
				t.Fatalf("%s: retries %+v, want tiers 1 and 2", name, sum.Retries)
			}
			t1, t2 := sum.Retries[0], sum.Retries[1]
			if t1.Attempted == 0 || t1.Recovered != 0 || t2.Attempted != t1.Attempted || t2.Recovered != t2.Attempted {
				t.Fatalf("%s: retries %+v, want n/0 at tier 1 and n/n at tier 2", name, sum.Retries)
			}
			if t1.Budget != 40*time.Millisecond || t2.Budget != 160*time.Millisecond {
				t.Fatalf("%s: tier budgets %v and %v, want 40ms and 160ms", name, t1.Budget, t2.Budget)
			}
		}
	}
}

// TestCrashResumeEquivalence cancels a run mid-sweep (the in-process
// stand-in for kill -9: only journaled verdicts survive), resumes from
// the journal, and requires byte-identical vectors and coverage versus
// an uninterrupted run — at 1 and 8 workers, with dropping off and on.
// With dropping on, the faults the interrupted run dropped are not
// journaled: the resume must re-derive them by replaying the journaled
// verdicts through the commit frontier at their plan positions.
func TestCrashResumeEquivalence(t *testing.T) {
	// The drop-off arm runs a random circuit rather than the multiplier:
	// RPT detects every multiplier fault, leaving nothing for the SAT
	// phase to journal. This one leaves ~185 solver verdicts (redundant +
	// hard faults), so the cancel lands mid-sweep. The comparator's
	// sweep is hundreds of faults long, most of them dropped.
	arms := []struct {
		name string
		c    *logic.Circuit
		drop bool
	}{
		{"rand200", gen.Random(gen.RandomParams{Inputs: 20, Gates: 200, Seed: 3}), false},
		{"cmp48-drop", gen.Comparator(48), true},
	}
	const cancelAt = 5

	for _, arm := range arms {
		c := arm.c
		faults := CollapseDominance(c, Collapse(c, AllFaults(c)))
		opt := RunOptions{RPTBatches: DefaultRPTBatches, Seed: 42, DropDetected: arm.drop}
		for _, workers := range []int{1, 8} {
			name := arm.name + " workers=" + itoa(workers)
			baseline, err := (&Engine{Workers: workers}).RunFaults(context.Background(), c, faults, opt)
			if err != nil {
				t.Fatalf("%s baseline: %v", name, err)
			}
			// The sweep's first dispatch slot: the faults the pre-phase
			// left, laid out as the run lays them out.
			skip := rptDetected(t, c, faults, baseline)
			order, _ := buildGroups(newRegionTable(c), faults, skip, 0)
			first := faults[order[0]]

			// Interrupted run: cancel as the sweep reaches its cancelAt-th
			// live member, the first slot aside. The members still in
			// flight or not yet reached then go unpublished, so the commit
			// frontier stops short of the end. Waiting for one journaled
			// verdict first, which the first slot's worker always
			// delivers, leaves the resume something to replay.
			ctx, cancel := context.WithCancel(context.Background())
			sink := newRecordingSink()
			var reached atomic.Int64
			eng := &Engine{Workers: workers, testHook: func(f Fault, _ time.Duration) bool {
				if f != first && reached.Add(1) == cancelAt {
					for len(sink.state().Faults) == 0 {
						time.Sleep(time.Millisecond)
					}
					cancel()
				}
				return false
			}}
			iopt := opt
			iopt.Journal = sink
			_, err = eng.RunFaults(ctx, c, faults, iopt)
			cancel()
			if err == nil {
				t.Fatalf("%s: interrupted run finished before the cancel", name)
			}
			prior := sink.state()
			if len(prior.Faults) == 0 || len(prior.Faults) >= len(baseline.Results) {
				t.Fatalf("%s: %d of %d verdicts journaled before the cancel, want some but not all",
					name, len(prior.Faults), len(baseline.Results))
			}

			ropt := opt
			ropt.Resume = prior
			resumed, err := (&Engine{Workers: workers}).RunFaults(context.Background(), c, faults, ropt)
			if err != nil {
				t.Fatalf("%s resume: %v", name, err)
			}
			if !reflect.DeepEqual(resumed.Vectors, baseline.Vectors) {
				t.Fatalf("%s: resumed vector set differs from uninterrupted run (%d vs %d vectors)",
					name, len(resumed.Vectors), len(baseline.Vectors))
			}
			if resumed.Coverage() != baseline.Coverage() {
				t.Fatalf("%s: coverage %v after resume, want %v",
					name, resumed.Coverage(), baseline.Coverage())
			}
			if resumed.Detected != baseline.Detected || resumed.Untestable != baseline.Untestable ||
				resumed.DetectedByRPT != baseline.DetectedByRPT || resumed.DroppedByFaultSim != baseline.DroppedByFaultSim {
				t.Fatalf("%s: resumed tallies %d/%d/%d/%d, want %d/%d/%d/%d", name,
					resumed.Detected, resumed.Untestable, resumed.DetectedByRPT, resumed.DroppedByFaultSim,
					baseline.Detected, baseline.Untestable, baseline.DetectedByRPT, baseline.DroppedByFaultSim)
			}
			if resumed.RPTBatches != baseline.RPTBatches || resumed.RPTVectors != baseline.RPTVectors {
				t.Fatalf("%s: resumed pre-phase ran %d batches keeping %d patterns, want %d and %d", name,
					resumed.RPTBatches, resumed.RPTVectors, baseline.RPTBatches, baseline.RPTVectors)
			}
		}
	}
}

// TestCompletedJournalResume resumes a completed journal: every solver
// verdict is replayed, and the seeded pre-phase runs again over the full
// fault list. The journaled faults must stay in the pre-phase's live
// list — otherwise it empties early and runs fewer batches than the
// journaled run — so the resume reproduces the uninterrupted run's
// batches, kept patterns and vectors without a single solve, with drops
// off and on, at 1 and 8 workers.
func TestCompletedJournalResume(t *testing.T) {
	c := gen.Random(gen.RandomParams{Inputs: 20, Gates: 200, Seed: 3})
	faults := CollapseDominance(c, Collapse(c, AllFaults(c)))
	for _, drop := range []bool{false, true} {
		opt := RunOptions{RPTBatches: DefaultRPTBatches, Seed: 42, DropDetected: drop}
		for _, workers := range []int{1, 8} {
			name := fmt.Sprintf("drop=%t workers=%d", drop, workers)
			sink := newRecordingSink()
			jopt := opt
			jopt.Journal = sink
			base, err := (&Engine{Workers: workers}).RunFaults(context.Background(), c, faults, jopt)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if len(sink.state().Faults) == 0 {
				t.Fatalf("%s: the run journaled no verdict", name)
			}
			var solves atomic.Int64
			eng := &Engine{Workers: workers, testHook: func(Fault, time.Duration) bool {
				solves.Add(1)
				return false
			}}
			ropt := opt
			ropt.Resume = sink.state()
			got, err := eng.RunFaults(context.Background(), c, faults, ropt)
			if err != nil {
				t.Fatalf("%s resume: %v", name, err)
			}
			if got.RPTBatches != base.RPTBatches || got.RPTVectors != base.RPTVectors {
				t.Errorf("%s: resumed pre-phase ran %d batches keeping %d patterns, want %d and %d",
					name, got.RPTBatches, got.RPTVectors, base.RPTBatches, base.RPTVectors)
			}
			if !reflect.DeepEqual(got.Vectors, base.Vectors) {
				t.Errorf("%s: resumed run lists %d vectors, want the uninterrupted run's %d",
					name, len(got.Vectors), len(base.Vectors))
			}
			if n := solves.Load(); n != 0 || got.SolverTotals.Conflicts != 0 {
				t.Errorf("%s: the resume made %d solves and %d conflicts, want none", name, n, got.SolverTotals.Conflicts)
			}
		}
	}
}

// TestCheckpointFingerprintEffectiveIdleStop: the pre-phase's idle stop
// was once a run option whose 0 meant DefaultRPTIdleStop, and is now
// always DefaultRPTIdleStop. The fingerprint must still hash it as it did
// then, so a drop-off journal written under the option's default
// resumes; the golden value is the one that option-era releases wrote
// for this option set. The drop-on value of that era must no longer
// match: such a journal was written under batched drops, which the exact
// drop rule does not replay.
func TestCheckpointFingerprintEffectiveIdleStop(t *testing.T) {
	c := gen.CarryLookaheadAdder(4)
	faults := Collapse(c, AllFaults(c))
	opt := RunOptions{RPTBatches: DefaultRPTBatches, Seed: 1, DropDetected: false}
	if got, want := CheckpointFingerprint(c, faults, opt), uint64(0xc051795e4c52fd34); got != want {
		t.Errorf("checkpoint fingerprint %#x, want %#x", got, want)
	}
	opt.DropDetected = true
	if got, batched := CheckpointFingerprint(c, faults, opt), uint64(0x56889e709e9eeb0f); got == batched {
		t.Errorf("drop-on checkpoint fingerprint %#x still matches batched-drop journals", got)
	}
}

// TestResumeSkipsDecidedFaults checks the dispatch plumbing directly: a
// resumed verdict must keep its journaled vector verbatim and never be
// re-solved. The sentinel vector detects its fault, as the frontier's
// re-simulation of a replayed vector requires, but is not the vector the
// solver finds.
func TestResumeSkipsDecidedFaults(t *testing.T) {
	c := gen.CarryLookaheadAdder(4)
	faults := Collapse(c, AllFaults(c))
	base, err := (&Engine{Workers: 2}).RunFaults(context.Background(), c, faults, RunOptions{})
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}

	// Resume with fault 0 pre-decided to a sentinel (wrong) vector: if the
	// engine re-solved it, the sentinel would be overwritten.
	sentinel := make([]bool, len(c.Inputs))
	for i := range sentinel {
		sentinel[i] = true
	}
	if !VerifyTest(c, faults[0], sentinel) || reflect.DeepEqual(base.Results[0].Vector, sentinel) {
		t.Fatal("the sentinel must detect fault 0 and differ from the solver's vector")
	}
	rs := &ResumeState{Faults: map[int]Result{0: {Status: Detected, Vector: sentinel}}}
	resumed, err := (&Engine{Workers: 2}).RunFaults(context.Background(), c, faults, RunOptions{Resume: rs})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if resumed.Total != base.Total || resumed.Detected != base.Detected {
		t.Fatalf("resumed run shape changed: %d/%d vs %d/%d",
			resumed.Detected, resumed.Total, base.Detected, base.Total)
	}
	if !reflect.DeepEqual(resumed.Results[0].Vector, sentinel) {
		t.Fatal("resumed verdict was re-solved instead of replayed")
	}
}

// TestResumeChecksReplayedVectors: a journal is external input, so the
// commit frontier re-simulates each replayed Detected vector against its
// own fault and fails the run, naming the fault, when the vector does
// not detect it or is missing — with dropping on, where the vector would
// also drive the flush, and off.
func TestResumeChecksReplayedVectors(t *testing.T) {
	c := gen.Comparator(48)
	faults := CollapseDominance(c, Collapse(c, AllFaults(c)))
	for _, drop := range []bool{true, false} {
		opt := RunOptions{RPTBatches: DefaultRPTBatches, Seed: 1, DropDetected: drop}
		sink := newRecordingSink()
		jopt := opt
		jopt.Journal = sink
		if _, err := (&Engine{Workers: 2}).RunFaults(context.Background(), c, faults, jopt); err != nil {
			t.Fatal(err)
		}
		zeros := make([]bool, len(c.Inputs))
		victim := -1
		for i, r := range sink.state().Faults {
			if r.Status == Detected && !VerifyTest(c, faults[i], zeros) && (victim < 0 || i < victim) {
				victim = i
			}
		}
		if victim < 0 {
			t.Fatalf("drop=%t: every journaled vector's fault is detected by all zeros", drop)
		}
		for _, vec := range [][]bool{zeros, nil} {
			rs := sink.state()
			rs.Faults[victim] = Result{Status: Detected, Vector: vec}
			ropt := opt
			ropt.Resume = rs
			_, err := (&Engine{Workers: 2}).RunFaults(context.Background(), c, faults, ropt)
			if err == nil || !strings.Contains(err.Error(), faults[victim].Name(c)) {
				t.Errorf("drop=%t: resume with a %d-bit non-detecting vector for %s returned %v",
					drop, len(vec), faults[victim].Name(c), err)
			}
		}
	}
}

// TestPanicDropsTheBase injects a panic into a group whose successor has
// the same good set, on one worker: the panic barrier replaces the
// worker's instance, and the replacement holds no base, so the successor
// must load its good copy again rather than only its own part. With drops
// off, every verdict and vector outside the panicked group must equal a
// run without the panic.
func TestPanicDropsTheBase(t *testing.T) {
	c, err := decomp.Decompose(gen.Comparator(48), 3)
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultRunOptions()
	opt.DropDetected = false
	clean, err := (&Engine{Workers: 1}).Run(context.Background(), c, opt)
	if err != nil {
		t.Fatal(err)
	}
	ids, byGroup := sweepGroups(clean)
	fe := newFormulaEncoder(c, newRegionTable(c).head)
	goodSet := func(id int) []int {
		var members []Fault
		for _, r := range byGroup[id] {
			members = append(members, r.Fault)
		}
		if f, err := fe.encode(members); err != nil || f == nil {
			return nil
		}
		return slices.Clone(fe.ids)
	}
	victimGroup := -1
	for k := 0; k+1 < len(ids) && victimGroup < 0; k++ {
		if a := goodSet(ids[k]); a != nil && ids[k+1] == ids[k]+1 && slices.Equal(a, goodSet(ids[k+1])) {
			victimGroup = ids[k]
		}
	}
	if victimGroup < 0 {
		t.Fatal("no group is followed by one with the same good set")
	}
	victim := byGroup[victimGroup][0].Fault
	eng := &Engine{Workers: 1, testHook: func(f Fault, _ time.Duration) bool {
		if f == victim {
			panic("injected")
		}
		return false
	}}
	got, err := eng.Run(context.Background(), c, opt)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[Fault]Result, len(clean.Results))
	for _, r := range clean.Results {
		want[r.Fault] = r
	}
	errored := 0
	for _, r := range got.Results {
		w := want[r.Fault]
		switch {
		case r.Group == victimGroup && r.Status == Errored:
			errored++
		case r.Status != w.Status || !slices.Equal(r.Vector, w.Vector):
			t.Fatalf("%s (group %d, panicked group %d): %v %v, want %v %v",
				r.Fault.Name(c), r.Group, victimGroup, r.Status, r.Vector, w.Status, w.Vector)
		}
	}
	if errored == 0 || len(got.Results) != len(clean.Results) {
		t.Fatalf("%d Errored results, %d results; want the victim's and %d", errored, len(got.Results), len(clean.Results))
	}
}
