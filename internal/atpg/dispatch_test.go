package atpg

import (
	"context"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"atpgeasy/internal/gen"
	"atpgeasy/internal/logic"
	"atpgeasy/internal/obs"
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
	order, _ := buildGroups(c, faults, skip, 4)
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
	cone := func(net int) int {
		seen := make(map[int]bool)
		stack := []int{net}
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if seen[n] {
				continue
			}
			seen[n] = true
			stack = append(stack, c.Nodes[n].Fanout...)
		}
		return len(seen)
	}
	// A region's first fault carries its largest cone.
	type region struct {
		head, cone int
		minIdx     int32
	}
	head := regionHeads(c)
	var regions []region
	seenRegion := map[int]bool{}
	for k, i := range order {
		h := int(head[faults[i].Net])
		if k > 0 && regions[len(regions)-1].head == h {
			prev := order[k-1]
			ca, cb := cone(faults[prev].Net), cone(faults[i].Net)
			if ca < cb || (ca == cb && prev >= i) {
				t.Fatalf("order[%d]=%d (cone %d) before order[%d]=%d (cone %d)", k-1, prev, ca, k, i, cb)
			}
			regions[len(regions)-1].minIdx = min(regions[len(regions)-1].minIdx, i)
			continue
		}
		if seenRegion[h] {
			t.Fatalf("region-%d's faults are not consecutive", h)
		}
		seenRegion[h] = true
		regions = append(regions, region{head: h, cone: cone(faults[i].Net), minIdx: i})
	}
	for r := 1; r < len(regions); r++ {
		a, b := regions[r-1], regions[r]
		if a.cone < b.cone || (a.cone == b.cone && a.minIdx >= b.minIdx) {
			t.Fatalf("region-%d (cone %d, fault %d) before region-%d (cone %d, fault %d)",
				a.head, a.cone, a.minIdx, b.head, b.cone, b.minIdx)
		}
	}
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
// sets must also match each other.
func TestParallelByteIdenticalWithDrop(t *testing.T) {
	circuits := parallelTestCircuits()
	circuits["rand-big"] = gen.Random(gen.RandomParams{Inputs: 20, Gates: 200, Seed: 3})
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
			if len(serial.Results) != len(par.Results) {
				t.Fatalf("%s: %d results vs %d", name, len(serial.Results), len(par.Results))
			}
			for i := range serial.Results {
				sr, pr := serial.Results[i], par.Results[i]
				if sr.Fault != pr.Fault || sr.Status != pr.Status ||
					sr.Vars != pr.Vars || sr.Clauses != pr.Clauses ||
					!reflect.DeepEqual(sr.Vector, pr.Vector) {
					t.Errorf("%s: result %d differs: %v/%v vs %v/%v", name, i,
						sr.Fault, sr.Status, pr.Fault, pr.Status)
				}
				if sr.Group < 1 || pr.Group < 1 {
					t.Errorf("%s: result %d solved outside a region group", name, i)
				}
			}
		}
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

// TestTailFlushDropsFinalBatch is the regression test for the lost final
// drop-batch: Figure4a yields 10 detectable faults, fewer than dropBatch,
// so the old engine's pending vectors were never flushed and no fault was
// ever dropped. The tail-flush window must fault-simulate them anyway.
func TestTailFlushDropsFinalBatch(t *testing.T) {
	c := logic.Figure4a()
	faults := Collapse(c, AllFaults(c))
	eng := &Engine{Workers: 1}
	sum, err := eng.RunFaults(context.Background(), c, faults, RunOptions{DropDetected: true})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Detected >= dropBatch {
		t.Fatalf("workload detects %d ≥ dropBatch vectors; it no longer pins the tail-flush path", sum.Detected)
	}
	if sum.DroppedByFaultSim == 0 {
		t.Fatal("no faults dropped: the final sub-dropBatch vector batch was never flushed")
	}
	if sum.Detected+sum.DroppedByFaultSim+sum.Untestable != sum.Total {
		t.Fatalf("verdicts %d+%d+%d do not partition %d faults",
			sum.Detected, sum.DroppedByFaultSim, sum.Untestable, sum.Total)
	}
}

// flushState builds a runState ready for direct flushLocked calls: a
// dispatch order over the whole fault list and a set of committed
// vectors pending simulation.
func flushState(tb testing.TB, c *logic.Circuit, nVecs int) (*runState, *workerScratch, [][]bool) {
	tb.Helper()
	faults := Collapse(c, AllFaults(c))
	st := &runState{
		c:        c,
		opt:      RunOptions{DropDetected: true},
		start:    time.Now(),
		faults:   faults,
		results:  make([]*Result, len(faults)),
		droppedF: newBitset(len(faults)),
		trace:    obs.NewTrace(nil),
	}
	st.plan = planDispatch(c, faults, nil, 0, 0)
	rng := rand.New(rand.NewSource(7))
	vecs := make([][]bool, nVecs)
	for p := range vecs {
		vecs[p] = make([]bool, len(c.Inputs))
		for i := range vecs[p] {
			vecs[p][i] = rng.Intn(2) == 1
		}
	}
	return st, newScratch(c), vecs
}

// flushOnce reloads the pending batch and runs one flush, resetting the
// drop bits in place so every iteration scans the full tail.
func flushOnce(tb testing.TB, st *runState, ws *workerScratch, vecs [][]bool) {
	for i := range st.droppedF {
		st.droppedF[i].Store(0)
	}
	st.pendingVecs = append(st.pendingVecs[:0], vecs...)
	if err := st.flushLocked(ws, 0); err != nil {
		tb.Fatal(err)
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
	st, ws, vecs := flushState(t, gen.CarryLookaheadAdder(8), dropBatch)
	flushOnce(t, st, ws, vecs) // warm up the pack buffer and simulator
	allocs := testing.AllocsPerRun(20, func() { flushOnce(t, st, ws, vecs) })
	if allocs != 0 {
		t.Fatalf("flush allocates %.1f objects per call, want 0", allocs)
	}
}

// BenchmarkFlushDropList measures one drop-list flush (pack + simulate +
// bitset marking) against the cla32 tail and enforces the zero-allocation
// contract in the timed path.
func BenchmarkFlushDropList(b *testing.B) {
	st, ws, vecs := flushState(b, gen.CarryLookaheadAdder(32), dropBatch)
	flushOnce(b, st, ws, vecs)
	allocs := testing.AllocsPerRun(10, func() { flushOnce(b, st, ws, vecs) })
	if !raceEnabled && allocs != 0 {
		b.Fatalf("flush allocates %.1f objects per call, want 0", allocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		flushOnce(b, st, ws, vecs)
	}
}
