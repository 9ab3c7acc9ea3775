package atpg

import (
	"context"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"atpgeasy/internal/faultsim"
	"atpgeasy/internal/gen"
	"atpgeasy/internal/logic"
	"atpgeasy/internal/obs"
	"atpgeasy/internal/sat"
)

// TestBitsetSetGet covers the drop bitset's single-owner transition
// semantics: set reports the flip exactly once per bit, get observes it,
// and concurrent setters of the same bit elect exactly one winner.
func TestBitsetSetGet(t *testing.T) {
	b := newBitset(200)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 199} {
		if b.get(i) {
			t.Fatalf("bit %d set in a fresh bitset", i)
		}
		if !b.set(i) {
			t.Fatalf("first set(%d) did not win the flip", i)
		}
		if b.set(i) {
			t.Fatalf("second set(%d) also won the flip", i)
		}
		if !b.get(i) {
			t.Fatalf("bit %d not visible after set", i)
		}
	}
	// 64 goroutines race to set the same 64 bits; each bit must have
	// exactly one winner.
	b = newBitset(64)
	var wins atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 64; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 64; i++ {
				if b.set(i) {
					wins.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if wins.Load() != 64 {
		t.Fatalf("%d flip wins for 64 bits", wins.Load())
	}
}

// TestEffortOrder: under a skip mask, the dispatch order must cover
// every undecided fault exactly once and no decided one, in effort
// order: regions by their largest fanout cone (descending, the smallest
// fault index breaking ties), each region's faults consecutive and
// sorted by cone size (descending) then fault index — the schedule that
// keeps one hard fault from serializing the tail.
func TestEffortOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := randomCircuit(rng, 80)
	faults := Collapse(c, AllFaults(c))
	skip := make([]bool, len(faults))
	for i := range skip {
		skip[i] = i%3 == 0
	}
	rt := newRegionTable(c)
	order, _ := buildGroups(rt, faults, skip, 4)
	seen := make(map[int32]bool, len(order))
	for _, i := range order {
		if skip[i] {
			t.Fatalf("order contains skipped fault %d", i)
		}
		if seen[i] {
			t.Fatalf("fault %d dispatched twice", i)
		}
		seen[i] = true
	}
	want := 0
	for i := range faults {
		if !skip[i] {
			want++
		}
	}
	if len(order) != want {
		t.Fatalf("order covers %d of %d undecided faults", len(order), want)
	}
	cone := make([]int32, len(faults))
	for i, f := range faults {
		cone[i] = refStructure(c, f.Net).ConeSize
	}
	checkEffortOrder(t, "rand80", rt.head, faults, order, cone)
}

// TestParallelByteIdenticalWithDrop is the headline guarantee of the
// deterministic commit frontier: with fault dropping enabled, an
// 8-worker run reproduces the serial run byte for byte — same vector
// set, same per-fault verdicts and vectors, same detected/dropped split.
// (The old engine only preserved aggregate counts: its drop list raced on
// worker timing.) Built with -race in CI, this doubles as the concurrent
// core's race test. Timing fields and WastedSolves — the price of
// speculation, not part of the official outcome — are the only summary
// fields allowed to differ. The property is checked at the default
// group-size cap and at 1 (a fresh instance per fault), whose vector
// sets must also match each other. cmp48's long sweep drops many
// members of groups a worker has already claimed. Per-result formula
// sizes (Result.Vars/Clauses) depend on which members are still live
// when a worker encodes their group, so they are compared between two
// serial runs, where that is a function of the plan alone.
func TestParallelByteIdenticalWithDrop(t *testing.T) {
	circuits := parallelTestCircuits()
	circuits["rand-big"] = gen.Random(gen.RandomParams{Inputs: 20, Gates: 200, Seed: 3})
	circuits["cmp48"] = gen.Comparator(48)
	refs := map[string]*Summary{} // the first plan's serial run, per circuit
	for _, plan := range []struct {
		name     string
		groupMax int
	}{
		{name: "grouped", groupMax: DefaultGroupMax},
		{name: "grouped-max1", groupMax: 1},
	} {
		for cname, c := range circuits {
			name := plan.name + "/" + cname
			faults := Collapse(c, AllFaults(c))
			opt := RunOptions{DropDetected: true, RPTBatches: 8, Seed: 42, GroupMax: plan.groupMax}
			serial, err := (&Engine{Workers: 1}).RunFaults(context.Background(), c, faults, opt)
			if err != nil {
				t.Fatalf("%s serial: %v", name, err)
			}
			again, err := (&Engine{Workers: 1}).RunFaults(context.Background(), c, faults, opt)
			if err != nil {
				t.Fatalf("%s serial again: %v", name, err)
			}
			par, err := (&Engine{Workers: 8}).RunFaults(context.Background(), c, faults, opt)
			if err != nil {
				t.Fatalf("%s parallel: %v", name, err)
			}
			if ref, ok := refs[cname]; !ok {
				refs[cname] = serial
			} else if !reflect.DeepEqual(ref.Vectors, serial.Vectors) {
				t.Errorf("%s: vector set differs from the default group-size cap", name)
			}
			if serial.WastedSolves != 0 {
				t.Errorf("%s: serial run wasted %d solves, want 0", name, serial.WastedSolves)
			}
			if !reflect.DeepEqual(serial.Vectors, par.Vectors) {
				t.Errorf("%s: vector sets differ between 1 and 8 workers", name)
			}
			if serial.Detected != par.Detected || serial.Untestable != par.Untestable ||
				serial.Aborted != par.Aborted || serial.Errors != par.Errors ||
				serial.DroppedByFaultSim != par.DroppedByFaultSim ||
				serial.DetectedByRPT != par.DetectedByRPT ||
				serial.RPTBatches != par.RPTBatches || serial.RPTVectors != par.RPTVectors {
				t.Errorf("%s: summaries differ:\n serial D%d U%d A%d E%d drop%d rpt%d/%d/%d\n par    D%d U%d A%d E%d drop%d rpt%d/%d/%d",
					name,
					serial.Detected, serial.Untestable, serial.Aborted, serial.Errors,
					serial.DroppedByFaultSim, serial.DetectedByRPT, serial.RPTBatches, serial.RPTVectors,
					par.Detected, par.Untestable, par.Aborted, par.Errors,
					par.DroppedByFaultSim, par.DetectedByRPT, par.RPTBatches, par.RPTVectors)
			}
			if len(serial.Results) != len(par.Results) || len(serial.Results) != len(again.Results) {
				t.Fatalf("%s: %d results vs %d at 8 workers, %d serially again", name,
					len(serial.Results), len(par.Results), len(again.Results))
			}
			for i := range serial.Results {
				sr, pr, ar := serial.Results[i], par.Results[i], again.Results[i]
				if sr.Fault != pr.Fault || sr.Status != pr.Status ||
					!reflect.DeepEqual(sr.Vector, pr.Vector) {
					t.Errorf("%s: result %d differs: %v/%v vs %v/%v", name, i,
						sr.Fault, sr.Status, pr.Fault, pr.Status)
				}
				if sr.Vars != ar.Vars || sr.Clauses != ar.Clauses {
					t.Errorf("%s: result %d formula size %d/%d vs %d/%d between serial runs", name, i,
						sr.Vars, sr.Clauses, ar.Vars, ar.Clauses)
				}
				if sr.Group < 1 || pr.Group < 1 {
					t.Errorf("%s: result %d solved outside a region group", name, i)
				}
			}
		}
	}
}

// TestExactDropRule pins the drop rule on a sweep long enough for a
// batched rule to break it: cmp48 after a short pre-phase leaves
// hundreds of faults to the sweep. At 1, 4 and 8 workers and at the
// default group-size cap and 1, every run must keep the rule
// (checkExactDrops) and reproduce the first run's vectors and counts.
// (Per-result formula sizes are not compared: a worker ahead of the
// frontier encodes a group before earlier vectors drop its members.)
func TestExactDropRule(t *testing.T) {
	c := gen.Comparator(48)
	faults := Collapse(c, AllFaults(c))
	var ref *Summary
	for _, groupMax := range []int{DefaultGroupMax, 1} {
		for _, workers := range []int{1, 4, 8} {
			name := "group-max=" + itoa(groupMax) + "/workers=" + itoa(workers)
			opt := RunOptions{DropDetected: true, RPTBatches: 8, Seed: 42, GroupMax: groupMax}
			sum, err := (&Engine{Workers: workers}).RunFaults(context.Background(), c, faults, opt)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			checkExactDrops(t, name, c, faults, sum)
			if ref == nil {
				ref = sum
				continue
			}
			if !reflect.DeepEqual(sum.Vectors, ref.Vectors) || sum.Detected != ref.Detected ||
				sum.DroppedByFaultSim != ref.DroppedByFaultSim || sum.Untestable != ref.Untestable {
				t.Errorf("%s: %d vectors, D%d drop%d U%d; first run %d vectors, D%d drop%d U%d", name,
					len(sum.Vectors), sum.Detected, sum.DroppedByFaultSim, sum.Untestable,
					len(ref.Vectors), ref.Detected, ref.DroppedByFaultSim, ref.Untestable)
			}
		}
	}
}

// checkExactDrops checks the drop rule on a finished run: laid out in the
// sweep's plan (the pre-phase's detections skipped), every fault the
// sweep solved is detected by no Detected vector at an earlier plan
// position, and every fault it dropped by at least one. The brute-force
// reference simulator decides detection.
func checkExactDrops(t *testing.T, name string, c *logic.Circuit, faults []Fault, sum *Summary) {
	t.Helper()
	skip := rptDetected(t, c, faults, sum)
	solved := make(map[Fault]Result, len(sum.Results))
	for _, r := range sum.Results {
		solved[r.Fault] = r
	}
	var earlier [][]bool // Detected vectors at earlier plan positions
	detectedEarlier := func(f Fault) bool {
		for lo := 0; lo < len(earlier); lo += 64 {
			batch := earlier[lo:min(lo+64, len(earlier))]
			words, err := faultsim.PackPatterns(c, batch)
			if err != nil {
				t.Fatal(err)
			}
			if faultsim.ReferenceDetects(c, words, len(batch), f.Net, f.StuckAt) != 0 {
				return true
			}
		}
		return false
	}
	dropped := 0
	order, _ := buildGroups(newRegionTable(c), faults, skip, 0)
	for _, i := range order {
		f := faults[i]
		r, ok := solved[f]
		if !ok {
			dropped++
		}
		if hit := detectedEarlier(f); ok && hit {
			t.Errorf("%s: solved fault %s is detected by a vector at an earlier plan position", name, f.Name(c))
			return
		} else if !ok && !hit {
			t.Errorf("%s: dropped fault %s is detected by no vector at an earlier plan position", name, f.Name(c))
			return
		}
		if ok && r.Status == Detected {
			earlier = append(earlier, r.Vector)
		}
	}
	if dropped != sum.DroppedByFaultSim {
		t.Errorf("%s: %d plan faults without a result, summary dropped %d", name, dropped, sum.DroppedByFaultSim)
	}
}

// TestNoRedundantSolveAfterDrop is the redundant-solve counter test: the
// solve-attempt hook must account for every solver call as either an
// official result or a counted wasted solve — no fault is ever solved
// after its drop bit was set at claim time, a serial run wastes nothing,
// and no officially dropped fault appears in Results.
func TestNoRedundantSolveAfterDrop(t *testing.T) {
	c := gen.Random(gen.RandomParams{Inputs: 20, Gates: 200, Seed: 3})
	faults := Collapse(c, AllFaults(c))
	for _, workers := range []int{1, 8} {
		var attempts atomic.Int64
		eng := &Engine{Workers: workers}
		eng.testHook = func(Fault, time.Duration) bool { attempts.Add(1); return false }
		sum, err := eng.RunFaults(context.Background(), c, faults, RunOptions{DropDetected: true})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got, want := int(attempts.Load()), len(sum.Results)+sum.WastedSolves; got != want {
			t.Errorf("workers=%d: %d solver calls for %d results + %d wasted (unaccounted redundant solves)",
				workers, got, len(sum.Results), sum.WastedSolves)
		}
		if workers == 1 && sum.WastedSolves != 0 {
			t.Errorf("serial run wasted %d solves, want 0", sum.WastedSolves)
		}
		if len(sum.Results)+sum.DroppedByFaultSim != sum.Total {
			t.Errorf("workers=%d: %d results + %d dropped do not partition %d faults (a dropped fault kept its result)",
				workers, len(sum.Results), sum.DroppedByFaultSim, sum.Total)
		}
		seen := make(map[Fault]bool, len(sum.Results))
		for _, r := range sum.Results {
			if seen[r.Fault] {
				t.Errorf("workers=%d: fault %s has two results", workers, r.Fault.Name(c))
			}
			seen[r.Fault] = true
		}
	}
}

// flushState builds a runState ready for direct flushLocked calls: a
// dispatch order over the whole fault list and one committed vector.
func flushState(tb testing.TB, c *logic.Circuit) (*runState, *workerScratch, []bool) {
	tb.Helper()
	faults := Collapse(c, AllFaults(c))
	st := &runState{
		c:        c,
		opt:      RunOptions{DropDetected: true},
		start:    time.Now(),
		faults:   faults,
		results:  make([]*Result, len(faults)),
		droppedF: newBitset(len(faults)),
		resumed:  make([]bool, len(faults)),
		trace:    obs.NewTrace(nil),
	}
	st.regions = newRegionTable(c)
	st.order, _ = buildGroups(st.regions, faults, nil, 0)
	rng := rand.New(rand.NewSource(7))
	vec := make([]bool, len(c.Inputs))
	for i := range vec {
		vec[i] = rng.Intn(2) == 1
	}
	return st, newScratch(c, st.regions.head), vec
}

// flushOnce runs one flush of the vector, resetting the drop bits in
// place so every iteration scans the full tail.
func flushOnce(tb testing.TB, st *runState, ws *workerScratch, vec []bool) {
	for i := range st.droppedF {
		st.droppedF[i].Store(0)
	}
	sim, err := ws.load(st.c, vec)
	if err != nil {
		tb.Fatal(err)
	}
	st.flushLocked(sim, 0)
}

// TestCommitRejectsForgedVector: the commit frontier is where every
// Detected vector is checked against its own fault, solved or resumed.
// A result published at plan position 0 whose vector does not detect its
// fault must fail the commit with an error naming the fault, before the
// verdict reaches the journal, the effort log or the tallies, and must
// leave the frontier in place; the same result with a detecting vector
// commits, is journaled once when solved and gets its one effort record.
func TestCommitRejectsForgedVector(t *testing.T) {
	c := gen.CarryLookaheadAdder(8)
	rng := rand.New(rand.NewSource(3))
	for _, resumed := range []bool{false, true} {
		for _, forged := range []bool{false, true} {
			name := "solved"
			if resumed {
				name = "resumed"
			}
			if forged {
				name += "/forged"
			}
			st, ws, _ := flushState(t, c)
			st.published = make([]atomic.Pointer[specResult], len(st.faults))
			st.pubHigh.Store(-1)
			sink := newRecordingSink()
			st.opt.Journal = sink
			el := NewEffortLog(io.Discard)
			var err error
			if st.effort, err = newEffortState(el, st.regions, st.faults, 1); err != nil {
				t.Fatal(err)
			}
			i := int(st.order[0])
			f := st.faults[i]
			vec := make([]bool, len(c.Inputs))
			for tries := 0; VerifyTest(c, f, vec) == forged; tries++ {
				if tries == 1000 {
					t.Fatalf("%s: no random vector with detection %t for %s", name, !forged, f.Name(c))
				}
				for k := range vec {
					vec[k] = rng.Intn(2) == 1
				}
			}
			res := Result{Fault: f, Status: Detected, Vector: vec, Group: 1, GroupSize: 1}
			if resumed {
				st.applyResume(&ResumeState{Faults: map[int]Result{i: res}})
				err = st.kickCommit(ws, 0)
			} else {
				err = st.publish(ws, 0, 0, res)
			}
			journaled, records := sink.faultCalls[i], el.Records()-1 // Records counts the header
			if forged {
				if err == nil || !strings.Contains(err.Error(), f.Name(c)) {
					t.Errorf("%s: commit returned %v, want an error naming %s", name, err, f.Name(c))
				}
				if journaled != 0 || records != 0 || st.frontier != 0 || st.results[i] != nil || st.doneN.Load() != 0 {
					t.Errorf("%s: %d journal and %d effort records, frontier %d, result %v, %d tallied; want none",
						name, journaled, records, st.frontier, st.results[i], st.doneN.Load())
				}
				continue
			}
			wantJournal := 1
			if resumed {
				wantJournal = 0 // a replayed verdict is already in the journal
			}
			if err != nil || journaled != wantJournal || records != 1 || st.frontier != 1 || st.results[i] == nil {
				t.Errorf("%s: commit returned %v with %d journal and %d effort records, frontier %d; want nil, %d, 1, 1",
					name, err, journaled, records, st.frontier, wantJournal)
			}
		}
	}
}

// TestFlushZeroAlloc asserts the satellite fix directly: a flush on the
// scratch path performs zero allocations — no O(faults) drop-list
// snapshot, no per-flush buffers, and its flush span goes to the run's
// record-only trace without allocating. Skipped under -race, whose
// instrumentation allocates.
func TestFlushZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	st, ws, vec := flushState(t, gen.CarryLookaheadAdder(8))
	flushOnce(t, st, ws, vec) // warm up the pack buffer and simulator
	allocs := testing.AllocsPerRun(20, func() { flushOnce(t, st, ws, vec) })
	if allocs != 0 {
		t.Fatalf("flush allocates %.1f objects per call, want 0", allocs)
	}
}

// TestBuildZeroAlloc asserts that a group's build allocates nothing on a
// warmed worker: encoding the gated formula of the circuit's largest
// region group and loading it into the worker's incremental instance on
// top of the good copy the instance holds as its base reuse the
// encoder's and the solver's buffers. Skipped under -race, whose
// instrumentation allocates.
func TestBuildZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	c := gen.ArrayMultiplier(6)
	rt := newRegionTable(c)
	faults := Collapse(c, AllFaults(c))
	order, groups := buildGroups(rt, faults, nil, DefaultGroupMax)
	g := groups[0]
	for _, gg := range groups {
		if gg.end-gg.start > g.end-g.start {
			g = gg
		}
	}
	var members []Fault
	for _, i := range order[g.start:g.end] {
		members = append(members, faults[i])
	}
	if len(members) < 2 {
		t.Fatalf("largest group has %d members", len(members))
	}
	ws := newScratch(c, rt.head)
	build := func() {
		f, _, err := ws.build(members)
		if err != nil || f == nil {
			t.Fatalf("build: %v (formula %v)", err, f)
		}
	}
	// Warm up as a worker does: build the group and solve every member.
	build()
	for k := range members {
		if !ws.enc.unobservable[k] {
			ws.inc.SolveAssuming(ws.enc.assumptions(k, nil), sat.Limits{})
		}
	}
	if allocs := testing.AllocsPerRun(20, build); allocs != 0 {
		t.Fatalf("a group build allocates %.1f objects, want 0", allocs)
	}
}

// BenchmarkFlushDropList measures one drop-list flush of one committed
// vector (pack + simulate + bitset marking) against the cla32 tail and
// enforces the zero-allocation contract in the timed path.
func BenchmarkFlushDropList(b *testing.B) {
	st, ws, vec := flushState(b, gen.CarryLookaheadAdder(32))
	flushOnce(b, st, ws, vec)
	allocs := testing.AllocsPerRun(10, func() { flushOnce(b, st, ws, vec) })
	if !raceEnabled && allocs != 0 {
		b.Fatalf("flush allocates %.1f objects per call, want 0", allocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		flushOnce(b, st, ws, vec)
	}
}
