package atpg

import (
	"bytes"
	"context"
	"io"
	"os"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"atpgeasy/internal/gen"
	"atpgeasy/internal/logic"
	"atpgeasy/internal/obs"
)

// recordingSink is a JournalSink capturing records in memory and
// counting the calls (RecordRPT, and RecordFault per fault index), with
// an optional context cancel fired once `cancelAfter` fault verdicts
// have landed — simulating a run killed mid-flight.
type recordingSink struct {
	mu          sync.Mutex
	cancel      context.CancelFunc
	cancelAfter int
	rpt         *ResumeRPT
	faults      map[int]Result
	rptCalls    int
	faultCalls  map[int]int
}

func newRecordingSink() *recordingSink {
	return &recordingSink{faults: make(map[int]Result), faultCalls: make(map[int]int)}
}

func (s *recordingSink) RecordRPT(detected []int, vectors [][]bool, batches int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rptCalls++
	rpt := &ResumeRPT{Detected: append([]int(nil), detected...), Batches: batches}
	for _, v := range vectors {
		rpt.Vectors = append(rpt.Vectors, append([]bool(nil), v...))
	}
	s.rpt = rpt
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
	return &ResumeState{RPT: s.rpt, Faults: fs}
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
	met := NewMetrics(reg, 2)
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

// recordedOnce fails the test unless the sink saw RecordRPT at most once
// and every fault index at most once.
func (s *recordingSink) recordedOnce(t *testing.T, what string) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.rptCalls > 1 {
		t.Errorf("%s: RecordRPT called %d times", what, s.rptCalls)
	}
	for i, n := range s.faultCalls {
		if n > 1 {
			t.Errorf("%s: fault %d journaled %d times", what, i, n)
		}
	}
}

// TestJournalRecordsEachVerdictOnce: the engine journals the pre-phase at
// most once and each fault at most once — the property that lets the
// checkpoint journal stay append-only, with no superseded record to
// compact away. It holds with dropping on, with sweep aborts (forced by
// the hook) that the retry tiers recover, at 1 and 4 workers, and across
// a cancel followed by a resume, whose journal continues the cancelled
// run's without repeating any of its records.
func TestJournalRecordsEachVerdictOnce(t *testing.T) {
	c := gen.Random(gen.RandomParams{Inputs: 20, Gates: 200, Seed: 3})
	faults := CollapseDominance(c, Collapse(c, AllFaults(c)))
	// With the pre-phase off (it is still journaled, empty) the sweep
	// gets the detectable faults, so its vectors drop others.
	opt := RunOptions{
		DropDetected: true, Seed: 42,
		PerFaultBudget: 10 * time.Millisecond, // tiers: 40ms, 160ms, 640ms
		RetryTiers:     3,
	}
	for _, workers := range []int{1, 4} {
		name := "workers=" + itoa(workers)
		// The hook aborts the faults on even nets below a 100ms budget:
		// the sweep still commits the others' vectors and flushes, and
		// tier 2 decides the aborted ones.
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
		if full.rptCalls != 1 || len(full.faults) != len(sum.Results) {
			t.Errorf("%s: %d RecordRPT calls and %d journaled faults, want 1 and %d",
				name, full.rptCalls, len(full.faults), len(sum.Results))
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
		if cut.rptCalls+rest.rptCalls > 1 {
			t.Errorf("%s: pre-phase journaled by the cancelled run and again by the resume", name)
		}
		for i := range rest.faultCalls {
			if cut.faultCalls[i] > 0 {
				t.Errorf("%s: fault %d journaled by the cancelled run and again by the resume", name, i)
			}
		}
	}
}

// TestFaultPanicAfterShrinkDumpsRecorder: a memory-watchdog shrink must
// not use up the run's one flight-recorder dump, so a fault panic after
// a shrink still prints the recorder to stderr. One worker makes the
// order fixed: the worker shrinks between faults, then its next fault
// panics.
func TestFaultPanicAfterShrinkDumpsRecorder(t *testing.T) {
	c := gen.ArrayMultiplier(7)
	met := NewMetrics(obs.NewRegistry(), 1)
	var panicked atomic.Bool
	eng := &Engine{Workers: 1, memCheckEvery: time.Millisecond}
	eng.testHook = func(Fault, time.Duration) bool {
		if met.CacheShrinks.Value() > 0 && panicked.CompareAndSwap(false, true) {
			panic("injected panic after a shrink")
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
	sum, runErr := eng.Run(context.Background(), c, RunOptions{
		MemSoftLimit: 1,
		Telemetry:    &Telemetry{Metrics: met},
	})
	os.Stderr = saved
	w.Close()
	stderr := <-captured
	r.Close()
	if runErr != nil {
		t.Fatal(runErr)
	}
	if !panicked.Load() {
		t.Fatal("the watchdog never shrank the learned budget during the run")
	}
	if sum.Errors == 0 {
		t.Fatal("no Errored result after the injected panic")
	}
	for _, want := range []string{"fault panic recovered", "flight recorder:", " shrink "} {
		if !bytes.Contains(stderr, []byte(want)) {
			t.Errorf("stderr lacks %q:\n%s", want, stderr)
		}
	}
}

// TestRetryTiersRecoverAbortedFaults runs with a budget every fault
// "exceeds" until the second escalation tier, and requires the retry
// phase to decide all of them — with the per-tier story in
// Summary.Retries and the labeled metrics.
func TestRetryTiersRecoverAbortedFaults(t *testing.T) {
	c := gen.CarryLookaheadAdder(4)
	faults := Collapse(c, AllFaults(c))
	reg := obs.NewRegistry()
	met := NewMetrics(reg, 2)
	eng := &Engine{Workers: 2, testHook: abortBelow(100 * time.Millisecond)}
	sink := newRecordingSink()
	sum, err := eng.RunFaults(context.Background(), c, faults, RunOptions{
		PerFaultBudget: 10 * time.Millisecond, // tiers: 40ms, 160ms, 640ms
		RetryTiers:     3,
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
			bopt := opt
			bsink := newRecordingSink()
			bopt.Journal = bsink
			baseline, err := (&Engine{Workers: workers}).RunFaults(context.Background(), c, faults, bopt)
			if err != nil {
				t.Fatalf("%s baseline: %v", name, err)
			}
			// The sweep's first dispatch slot: the faults the pre-phase
			// left, laid out as the run lays them out.
			skip := make([]bool, len(faults))
			for _, i := range bsink.state().RPT.Detected {
				skip[i] = true
			}
			first := faults[planDispatch(c, faults, skip, 0, 0).order[0]]

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
			if prior.RPT == nil {
				t.Fatalf("%s: pre-phase missing from the journal", name)
			}
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
// re-solved.
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
