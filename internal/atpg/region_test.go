package atpg

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"atpgeasy/internal/decomp"
	"atpgeasy/internal/gen"
	"atpgeasy/internal/logic"
	"atpgeasy/internal/obs"
	"atpgeasy/internal/sat"
)

func regionTestCircuits() map[string]*logic.Circuit {
	return map[string]*logic.Circuit{
		"rand": gen.Random(gen.RandomParams{Inputs: 10, Gates: 60, Seed: 7}),
		"cla":  gen.CarryLookaheadAdder(4),
		"mult": gen.ArrayMultiplier(3),
	}
}

// TestRegionHeads pins the region-head invariants: a net whose fanout
// is read by exactly one distinct gate shares that gate's head, every
// other net is its own head, and head assignment is idempotent (the
// head of a head is itself).
func TestRegionHeads(t *testing.T) {
	for name, c := range regionTestCircuits() {
		head := newRegionTable(c).head
		for id := range c.Nodes {
			reader := -1
			multi := false
			for _, fo := range c.Nodes[id].Fanout {
				if reader == -1 {
					reader = fo
				} else if fo != reader {
					multi = true
					break
				}
			}
			if reader >= 0 && !multi {
				if head[id] != head[reader] {
					t.Fatalf("%s: net %d has single reader %d but head %d != %d",
						name, id, reader, head[id], head[reader])
				}
			} else if head[id] != int32(id) {
				t.Fatalf("%s: fanout stem/sink %d has head %d, want itself", name, id, head[id])
			}
			if h := head[id]; head[h] != h {
				t.Fatalf("%s: head %d of net %d is not its own head", name, h, id)
			}
		}
	}
}

// refStructure is net's fanout-cone size, cone depth and C_ψ^sub gate
// count built the way SubCircuit builds C_ψ^sub — TransitiveFanout,
// then TransitiveFanin of it, with depths from Level — sharing no code
// with regionTable. A gate is a node with fanin.
func refStructure(c *logic.Circuit, net int) FaultFeatures {
	fo := c.TransitiveFanout(net)
	deepest := c.Level(net)
	for _, n := range fo {
		deepest = max(deepest, c.Level(n))
	}
	gates := 0
	for _, n := range c.TransitiveFanin(fo...) {
		if len(c.Nodes[n].Fanin) > 0 {
			gates++
		}
	}
	return FaultFeatures{ConeSize: int32(len(fo)), ConeDepth: int32(deepest - c.Level(net) + 1), Gates: int32(gates)}
}

// checkEffortOrder fails t unless order lays its faults out in effort
// order under the reference cone sizes cone (per fault-list index):
// regions by their largest cone (descending, the smallest fault index
// breaking ties), each region's faults consecutive and sorted by cone
// (descending) then fault index.
func checkEffortOrder(t *testing.T, name string, head []int32, faults []Fault, order, cone []int32) {
	t.Helper()
	type region struct {
		head   int32
		cone   int32
		minIdx int32
	}
	var regions []region
	seen := map[int32]bool{}
	for k, i := range order {
		h := head[faults[i].Net]
		if k > 0 && regions[len(regions)-1].head == h {
			prev := order[k-1]
			if cone[prev] < cone[i] || (cone[prev] == cone[i] && prev >= i) {
				t.Fatalf("%s: order[%d]=%d (cone %d) before order[%d]=%d (cone %d)", name, k-1, prev, cone[prev], k, i, cone[i])
			}
			regions[len(regions)-1].minIdx = min(regions[len(regions)-1].minIdx, i)
			continue
		}
		if seen[h] {
			t.Fatalf("%s: region-%d's faults are not consecutive", name, h)
		}
		seen[h] = true
		regions = append(regions, region{head: h, cone: cone[i], minIdx: i})
	}
	for r := 1; r < len(regions); r++ {
		a, b := regions[r-1], regions[r]
		if a.cone < b.cone || (a.cone == b.cone && a.minIdx >= b.minIdx) {
			t.Fatalf("%s: region-%d (cone %d, fault %d) before region-%d (cone %d, fault %d)",
				name, a.head, a.cone, a.minIdx, b.head, b.cone, b.minIdx)
		}
	}
}

// TestRegionTableMatchesReference checks the per-head table against
// refStructure on every fault of the collapsed and the full fault list:
// each fault's three structural features, and the cone sizes buildGroups
// orders the plan by. Each list runs on two fresh tables, one walking
// the plan's fanout-only shapes before the features' fanin walks and
// one the other way round, as a run with an effort log does.
func TestRegionTableMatchesReference(t *testing.T) {
	circuits := map[string]*logic.Circuit{
		"cmp256":  gen.Comparator(256),
		"mult16":  gen.ArrayMultiplier(16),
		"rand500": gen.Random(gen.RandomParams{Inputs: 33, Gates: 500, Seed: 1}),
		"cla32":   gen.CarryLookaheadAdder(32),
		"dec10":   gen.Decoder(10),
	}
	for name, c := range circuits {
		d, err := decomp.Decompose(c, 3)
		if err != nil {
			t.Fatalf("%s: decompose: %v", name, err)
		}
		circuits[name] = d
	}
	for seed := int64(1); seed <= 20; seed++ {
		c := gen.Random(gen.RandomParams{
			Inputs: 4 + int(seed%7), Gates: 20 + 9*int(seed),
			MaxFanin: 2 + int(seed%5), Locality: 1 + float64(seed%4), Seed: seed,
		})
		d, err := decomp.Decompose(c, 3)
		if err != nil {
			t.Fatalf("%s: decompose: %v", c.Name, err)
		}
		circuits[fmt.Sprintf("rand-%d", seed)] = c
		circuits[fmt.Sprintf("rand-%d/decomposed", seed)] = d
	}
	for name, c := range circuits {
		ref := make(map[int]FaultFeatures)
		all := AllFaults(c)
		for _, f := range all {
			if _, ok := ref[f.Net]; !ok {
				ref[f.Net] = refStructure(c, f.Net)
			}
		}
		lists := map[string][]Fault{"full": all, "collapsed": CollapseDominance(c, Collapse(c, all))}
		for lname, faults := range lists {
			lname = name + "/" + lname
			cone := make([]int32, len(faults))
			for i, f := range faults {
				cone[i] = ref[f.Net].ConeSize
			}
			plan := func(rt *regionTable, label string) {
				order, _ := buildGroups(rt, faults, nil, 0)
				checkEffortOrder(t, label, rt.head, faults, order, cone)
				for i, f := range faults {
					if got := rt.coneSize(f.Net); got != cone[i] {
						t.Fatalf("%s: %s cone size %d, reference %d", label, f.Name(c), got, cone[i])
					}
				}
			}
			features := func(rt *regionTable, label string) {
				for i, feats := range rt.features(faults) {
					want := ref[faults[i].Net]
					feats.CC0, feats.CC1, feats.CO = 0, 0, 0
					if feats != want {
						t.Fatalf("%s: %s features %+v, reference %+v", label, faults[i].Name(c), feats, want)
					}
				}
			}
			planFirst, featsFirst := newRegionTable(c), newRegionTable(c)
			plan(planFirst, lname+" plan first")
			features(planFirst, lname+" plan first")
			features(featsFirst, lname+" features first")
			plan(featsFirst, lname+" features first")
		}
	}
}

// TestBuildGroupsCanonicalOrder requires the flattened dispatch order to
// be identical for every group-size cap — the property that makes the
// commit frontier, flush points and drop set independent of GroupMax —
// and the group spans to partition it without crossing regions or the
// cap.
func TestBuildGroupsCanonicalOrder(t *testing.T) {
	for name, c := range regionTestCircuits() {
		faults := Collapse(c, AllFaults(c))
		rt := newRegionTable(c)
		refOrder, _ := buildGroups(rt, faults, nil, 1)
		for _, max := range []int{2, 3, 7, DefaultGroupMax} {
			order, groups := buildGroups(rt, faults, nil, max)
			if len(order) != len(refOrder) {
				t.Fatalf("%s max=%d: order length %d vs %d", name, max, len(order), len(refOrder))
			}
			for i := range order {
				if order[i] != refOrder[i] {
					t.Fatalf("%s max=%d: order[%d] = %d, reference %d", name, max, i, order[i], refOrder[i])
				}
			}
			next := int32(0)
			for _, g := range groups {
				if g.start != next {
					t.Fatalf("%s max=%d: group %d starts at %d, want %d", name, max, g.id, g.start, next)
				}
				if n := g.end - g.start; n < 1 || int(n) > max {
					t.Fatalf("%s max=%d: group %d has %d members", name, max, g.id, n)
				}
				for _, idx := range order[g.start:g.end] {
					if h := rt.head[faults[idx].Net]; h != g.region {
						t.Fatalf("%s max=%d: fault net %d (head %d) in region-%d group",
							name, max, faults[idx].Net, h, g.region)
					}
				}
				next = g.end
			}
			if next != int32(len(order)) {
				t.Fatalf("%s max=%d: groups cover %d of %d slots", name, max, next, len(order))
			}
		}
	}
}

// sharedConeCircuits returns netlists whose regions take the gated
// formula's special cases: a primary output on a fanout-free chain
// (g1), a region head that is a primary output with outputs below it
// (h in "head-out"), and heads with no output below them, one a primary
// output itself (s) and one observable only through its chain (t,
// reached from the output g3). Net dup reads its chain net on both
// pins.
func sharedConeCircuits() map[string]*logic.Circuit {
	out := map[string]*logic.Circuit{}
	for _, name := range []string{"chain-out", "head-out"} {
		b := logic.NewBuilder(name)
		a, bb, cc, d, e := b.Input("a"), b.Input("b"), b.Input("c"), b.Input("d"), b.Input("e")
		g1 := b.Gate(logic.And, "g1", a, bb)
		g2 := b.Gate(logic.Or, "g2", g1, cc)
		dup := b.Gate(logic.And, "dup", g2, g2)
		h := b.Gate(logic.Nand, "h", dup, d)
		o1 := b.Gate(logic.And, "o1", h, e)
		o2 := b.Gate(logic.Xor, "o2", h, a)
		o3 := b.Gate(logic.Nor, "o3", o1, o2)
		b.MarkOutput(g1)
		b.MarkOutput(o2)
		b.MarkOutput(o3)
		if name == "head-out" {
			b.MarkOutput(h)
		}
		out[name] = b.MustBuild()
	}
	b := logic.NewBuilder("head-sink")
	a, bb, cc, d := b.Input("a"), b.Input("b"), b.Input("c"), b.Input("d")
	s := b.Gate(logic.Or, "s", b.Gate(logic.And, "g1", a, bb), cc)
	b.Gate(logic.And, "x1", s, d)
	b.Gate(logic.Nor, "x2", s, a)
	g3 := b.Gate(logic.Xor, "g3", cc, d)
	tt := b.Gate(logic.Nand, "t", g3, bb)
	b.Gate(logic.Or, "y1", tt, a)
	b.Gate(logic.And, "y2", tt, d)
	b.MarkOutput(s)
	b.MarkOutput(g3)
	out["head-sink"] = b.MustBuild()
	return out
}

// TestGroupFormulaMatchesMiter solves every fault of every region
// group through the group formula under assumptions on one incremental
// instance, and requires member-by-member agreement with the reference
// construction: the same verdict as TestFault's one-shot solve of the
// fault's Miter, and a group-extracted vector that detects the fault and
// is byte-identical to the one Miter.Encode's formula yields when solved
// lex-first over the miter's input good copies.
func TestGroupFormulaMatchesMiter(t *testing.T) {
	circuits := regionTestCircuits()
	for name, c := range sharedConeCircuits() {
		circuits[name] = c
	}
	for name, c := range circuits {
		faults := Collapse(c, AllFaults(c))
		rt := newRegionTable(c)
		order, groups := buildGroups(rt, faults, nil, DefaultGroupMax)
		eng := &Engine{}
		fresh := make(map[int]Result, len(faults))
		freshVec := make(map[int][]bool, len(faults))
		for _, idx := range order {
			f := faults[idx]
			res, err := eng.TestFault(c, f)
			if err != nil {
				t.Fatalf("%s: fresh %s: %v", name, f.Name(c), err)
			}
			fresh[int(idx)] = res
			m, err := NewMiter(c, f)
			if err == ErrUnobservable {
				continue
			}
			if err != nil {
				t.Fatalf("%s: NewMiter %s: %v", name, f.Name(c), err)
			}
			formula, err := m.Encode()
			if err != nil {
				t.Fatalf("%s: Miter.Encode %s: %v", name, f.Name(c), err)
			}
			var priority []int
			for _, in := range c.Inputs {
				if m.GoodOf[in] >= 0 {
					priority = append(priority, m.GoodOf[in])
				}
			}
			inc := sat.NewIncremental()
			inc.Load(formula, priority)
			if sol := inc.SolveAssuming(nil, sat.Limits{}); sol.Status == sat.Sat {
				freshVec[int(idx)] = m.ExtractTest(c, sol.Model)
			}
		}
		fe := newFormulaEncoder(c, rt.head)
		for _, g := range groups {
			members := make([]Fault, 0, g.end-g.start)
			for _, idx := range order[g.start:g.end] {
				members = append(members, faults[idx])
			}
			fe.pair() // a fresh instance: the formula comes with its good copy
			f, err := fe.encode(members)
			if err != nil {
				t.Fatalf("%s: encode: %v", name, err)
			}
			var inc *sat.Incremental
			if f != nil {
				inc = sat.NewIncremental()
				inc.SetBase(fe.base)
				inc.Load(f, fe.priority)
			}
			for k := range members {
				i := int(order[int(g.start)+k])
				want := fresh[i]
				if fe.unobservable[k] {
					if want.Status != Untestable {
						t.Fatalf("%s: %s unobservable in group but %v fresh",
							name, members[k].Name(c), want.Status)
					}
					continue
				}
				sol := inc.SolveAssuming(fe.assumptions(k, nil), sat.Limits{})
				switch sol.Status {
				case sat.Sat:
					if want.Status != Detected {
						t.Fatalf("%s: %s SAT in group, %v fresh", name, members[k].Name(c), want.Status)
					}
					vec := fe.extract(sol.Model)
					if !VerifyTest(c, members[k], vec) {
						t.Fatalf("%s: group vector for %s does not detect it", name, members[k].Name(c))
					}
					solo := freshVec[i]
					for b := range vec {
						if vec[b] != solo[b] {
							t.Fatalf("%s: %s group vector %v differs from solo %v",
								name, members[k].Name(c), vec, solo)
						}
					}
				case sat.Unsat:
					if want.Status != Untestable {
						t.Fatalf("%s: %s UNSAT in group, %v fresh", name, members[k].Name(c), want.Status)
					}
					if inc.Failed() {
						t.Fatalf("%s: per-member UNSAT latched global Failed", name)
					}
				default:
					t.Fatalf("%s: group solve of %s returned %v", name, members[k].Name(c), sol.Status)
				}
			}
		}
	}
}

// runIncremental is the equivalence harness: one incremental run with
// the given group cap and worker count, full TEGUS options.
func runIncremental(t *testing.T, c *logic.Circuit, groupMax, workers int) *Summary {
	t.Helper()
	eng := &Engine{Workers: workers}
	sum, err := eng.Run(context.Background(), c, RunOptions{
		Collapse: true, DropDetected: true,
		RPTBatches: DefaultRPTBatches, Seed: 42,
		GroupMax: groupMax,
	})
	if err != nil {
		t.Fatalf("incremental run (groupMax=%d, workers=%d): %v", groupMax, workers, err)
	}
	return sum
}

// sameVectors requires byte-identical vector sets in order.
func sameVectors(t *testing.T, name string, a, b [][]bool) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d vectors", name, len(a), len(b))
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatalf("%s: vector %d length %d vs %d", name, i, len(a[i]), len(b[i]))
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("%s: vector %d bit %d differs", name, i, j)
			}
		}
	}
}

// sameSummaries requires the deterministic parts of two summaries to be
// byte-identical: vectors, per-fault statuses in order, tallies and
// coverage. Solver statistics, instance sizes and timings are exempt —
// they legitimately vary with grouping and learned-clause retention.
func sameSummaries(t *testing.T, name string, a, b *Summary) {
	t.Helper()
	sameVectors(t, name, a.Vectors, b.Vectors)
	if a.Detected != b.Detected || a.Untestable != b.Untestable ||
		a.Aborted != b.Aborted || a.Errors != b.Errors ||
		a.DroppedByFaultSim != b.DroppedByFaultSim ||
		a.DetectedByRPT != b.DetectedByRPT {
		t.Fatalf("%s: tallies differ: (D%d U%d A%d E%d drop%d rpt%d) vs (D%d U%d A%d E%d drop%d rpt%d)",
			name,
			a.Detected, a.Untestable, a.Aborted, a.Errors, a.DroppedByFaultSim, a.DetectedByRPT,
			b.Detected, b.Untestable, b.Aborted, b.Errors, b.DroppedByFaultSim, b.DetectedByRPT)
	}
	if a.Coverage() != b.Coverage() {
		t.Fatalf("%s: coverage %v vs %v", name, a.Coverage(), b.Coverage())
	}
	if len(a.Results) != len(b.Results) {
		t.Fatalf("%s: %d vs %d results", name, len(a.Results), len(b.Results))
	}
	for i := range a.Results {
		if a.Results[i].Fault != b.Results[i].Fault || a.Results[i].Status != b.Results[i].Status {
			t.Fatalf("%s: result %d: %v/%v vs %v/%v", name, i,
				a.Results[i].Fault, a.Results[i].Status, b.Results[i].Fault, b.Results[i].Status)
		}
	}
}

// TestIncrementalEquivalence is the PR's acceptance property: region-
// grouped incremental solving must produce byte-identical vectors and
// summaries to fresh-per-fault solving (GroupMax 1 — a cold instance
// per fault on the same lex-first path) at any worker count, under the
// full TEGUS flow (collapse, RPT pre-phase, fault dropping).
func TestIncrementalEquivalence(t *testing.T) {
	for name, c := range regionTestCircuits() {
		ref := runIncremental(t, c, 1, 1)
		for _, cfg := range []struct {
			groupMax, workers int
		}{
			{1, 4},
			{DefaultGroupMax, 1},
			{DefaultGroupMax, 4},
			{3, 2},
		} {
			got := runIncremental(t, c, cfg.groupMax, cfg.workers)
			label := name + "/" +
				"max" + itoa(cfg.groupMax) + "w" + itoa(cfg.workers)
			sameSummaries(t, label, ref, got)
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// TestIncrementalUntestableIsolated builds a circuit with a redundant
// gate (g = a∧b feeding out = a∨g, so g stuck-at-0 is untestable) and
// requires the group instance to keep serving its neighbors after
// proving the redundancy: the UNSAT-under-assumptions verdict must not
// poison the instance or be recorded as global.
func TestIncrementalUntestableIsolated(t *testing.T) {
	b := logic.NewBuilder("redundant")
	a := b.Input("a")
	bb := b.Input("b")
	g := b.Gate(logic.And, "g", a, bb)
	out := b.Gate(logic.Or, "out", a, g)
	b.MarkOutput(out)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	faults := AllFaults(c)
	eng := &Engine{Workers: 1}
	sum, err := eng.RunFaults(context.Background(), c, faults, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Untestable == 0 {
		t.Fatalf("redundant fault not reported untestable: %+v", sum)
	}
	if sum.Detected == 0 {
		t.Fatalf("no detections after the untestable member: %+v", sum)
	}
	if sum.Detected+sum.Untestable != sum.Total {
		t.Fatalf("faults unaccounted: D%d U%d of %d", sum.Detected, sum.Untestable, sum.Total)
	}
	// Reference: every fault decided on its own by TestFault, sharing
	// nothing between faults.
	for _, r := range sum.Results {
		fresh, err := eng.TestFault(c, r.Fault)
		if err != nil {
			t.Fatal(err)
		}
		if fresh.Status != r.Status {
			t.Fatalf("%s: incremental %v vs TestFault %v", r.Fault.Name(c), r.Status, fresh.Status)
		}
	}
}

// TestIncrementalPanicIsolation injects a panic into one member's
// processing: the run must survive, the victim (and any unemitted
// group neighbors) report Errored with the panic message, and every
// fault stays accounted for.
func TestIncrementalPanicIsolation(t *testing.T) {
	c := gen.CarryLookaheadAdder(4)
	faults := Collapse(c, AllFaults(c))
	victim := faults[len(faults)/2]
	eng := &Engine{Workers: 2}
	eng.testHook = func(f Fault, _ time.Duration) bool {
		if f == victim {
			panic("injected region explosion")
		}
		return false
	}
	sum, err := eng.RunFaults(context.Background(), c, faults, RunOptions{})
	if err != nil {
		t.Fatalf("RunFaults: %v", err)
	}
	if sum.Errors == 0 {
		t.Fatal("no Errored results after an injected panic")
	}
	if got := sum.Detected + sum.Untestable + sum.Aborted + sum.Errors; got != sum.Total {
		t.Fatalf("faults lost to the panic: %d accounted of %d", got, sum.Total)
	}
	var found bool
	for i := range sum.Results {
		if sum.Results[i].Status == Errored {
			if !strings.Contains(sum.Results[i].Err, "injected region explosion") {
				t.Fatalf("Result.Err = %q", sum.Results[i].Err)
			}
			found = true
		}
	}
	if !found {
		t.Fatal("no Errored result in the summary")
	}
}

// TestIncrementalRetryTiers aborts every solver-bound member's first two
// attempts through the test hook and requires in-place escalation to
// decide each one at tier 2 on its group's instance, matching the
// unbudgeted run's verdicts and vectors — at the default group-size cap
// and at 1, on 2 workers. The pre-phase is off so faults reach the
// solvers.
func TestIncrementalRetryTiers(t *testing.T) {
	c := gen.ArrayMultiplier(3)
	for _, plan := range []struct {
		name     string
		groupMax int
	}{
		{name: "grouped", groupMax: DefaultGroupMax},
		{name: "grouped-max1", groupMax: 1},
	} {
		opt := RunOptions{Collapse: true, DropDetected: true, GroupMax: plan.groupMax}
		ref, err := (&Engine{Workers: 2}).Run(context.Background(), c, opt)
		if err != nil {
			t.Fatalf("%s reference: %v", plan.name, err)
		}
		opt.PerFaultBudget = 10 * time.Millisecond // tiers: 40ms, 160ms, 640ms
		eng := &Engine{Workers: 2, testHook: abortBelow(100 * time.Millisecond)}
		sum, err := eng.Run(context.Background(), c, opt)
		if err != nil {
			t.Fatalf("%s: %v", plan.name, err)
		}
		if len(sum.Retries) != 2 || sum.Aborted != 0 {
			t.Fatalf("%s: retries %+v, %d aborted; want every fault decided at tier 2", plan.name, sum.Retries, sum.Aborted)
		}
		if t1, t2 := sum.Retries[0], sum.Retries[1]; t1.Attempted == 0 || t1.Recovered != 0 ||
			t2.Attempted != t1.Attempted || t2.Recovered != t2.Attempted {
			t.Fatalf("%s: retries %+v, want n/0 at tier 1 and n/n at tier 2", plan.name, sum.Retries)
		}
		if !reflect.DeepEqual(sum.Vectors, ref.Vectors) || sum.Detected != ref.Detected ||
			sum.DroppedByFaultSim != ref.DroppedByFaultSim || sum.Untestable != ref.Untestable {
			t.Fatalf("%s: escalated run (%d vectors, D%d drop%d U%d) vs reference (%d vectors, D%d drop%d U%d)", plan.name,
				len(sum.Vectors), sum.Detected, sum.DroppedByFaultSim, sum.Untestable,
				len(ref.Vectors), ref.Detected, ref.DroppedByFaultSim, ref.Untestable)
		}
	}
}

// TestIncrementalTelemetryCounters checks the new counters flow: a
// grouped run on a multi-fault region must report clauses kept across
// calls and a positive clause-DB high-water mark.
func TestIncrementalTelemetryCounters(t *testing.T) {
	c := gen.ArrayMultiplier(3)
	reg := obs.NewRegistry()
	met := NewMetrics(reg)
	eng := &Engine{Workers: 1}
	sum, err := eng.Run(context.Background(), c, RunOptions{
		Collapse:  true,
		Telemetry: &Telemetry{Metrics: met},
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.SolverTotals.LearnedKept == 0 {
		t.Fatal("no learned clauses survived across calls on a multiplier")
	}
	if met.LearnedKept.Value() != sum.SolverTotals.LearnedKept {
		t.Fatalf("atpg_learned_kept_total = %d, summary %d",
			met.LearnedKept.Value(), sum.SolverTotals.LearnedKept)
	}
	if met.LearnedReused.Value() != sum.SolverTotals.LearnedReused {
		t.Fatalf("atpg_learned_reused_total = %d, summary %d",
			met.LearnedReused.Value(), sum.SolverTotals.LearnedReused)
	}
	if met.ClauseDBBytes.Value() <= 0 {
		t.Fatal("atpg_clause_db_bytes gauge never set")
	}
	var grouped bool
	for _, r := range sum.Results {
		if r.Group > 0 && r.GroupSize > 1 {
			grouped = true
		}
	}
	if !grouped {
		t.Fatal("no multi-member group in the results")
	}
}
