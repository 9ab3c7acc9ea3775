package atpg

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"atpgeasy/internal/faultsim"
	"atpgeasy/internal/gen"
	"atpgeasy/internal/logic"
	"atpgeasy/internal/sat"
)

func TestFaultString(t *testing.T) {
	c := logic.Figure4a()
	f := Fault{Net: c.MustLookup("f"), StuckAt: true}
	if got := f.Name(c); got != "f/1" {
		t.Errorf("Name = %q", got)
	}
	if !strings.Contains(f.String(), "/1") {
		t.Errorf("String = %q", f.String())
	}
}

func TestAllFaults(t *testing.T) {
	c := logic.Figure4a()
	faults := AllFaults(c)
	if len(faults) != 18 {
		t.Errorf("fault count = %d, want 2×9 = 18", len(faults))
	}
	b := logic.NewBuilder("k")
	x := b.Input("x")
	one := b.Const("one", true)
	g := b.Gate(logic.And, "g", x, one)
	b.MarkOutput(g)
	c2 := b.MustBuild()
	faults2 := AllFaults(c2)
	if len(faults2) != 4 {
		t.Errorf("const net faults not skipped: %d faults", len(faults2))
	}
}

func TestCollapse(t *testing.T) {
	c := logic.Figure4a()
	all := AllFaults(c)
	col := Collapse(c, all)
	if len(col) >= len(all) {
		t.Fatalf("collapse did not reduce: %d → %d", len(all), len(col))
	}
	// Net b feeds only f = AND(b, ¬c) un-inverted → b/0 ≡ f/0 dropped,
	// b/1 kept.
	b := c.MustLookup("b")
	for _, f := range col {
		if f.Net == b && !f.StuckAt {
			t.Error("b/0 should have been collapsed onto f/0")
		}
	}
	kept := false
	for _, f := range col {
		if f.Net == b && f.StuckAt {
			kept = true
		}
	}
	if !kept {
		t.Error("b/1 must be kept")
	}
	// Net c feeds f inverted → c/1 collapses (controlling 0 at pin = net 1).
	cc := c.MustLookup("c")
	for _, f := range col {
		if f.Net == cc && f.StuckAt {
			t.Error("c/1 should have been collapsed (inverted AND input)")
		}
	}
}

// TestCollapseEquivalence verifies the collapsing claim by brute force:
// each dropped fault has exactly the same test set as some kept fault on
// the reader's output net.
func TestCollapseEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 10; trial++ {
		c := randomCircuit(rng, 12)
		all := AllFaults(c)
		col := Collapse(c, all)
		kept := make(map[Fault]bool, len(col))
		for _, f := range col {
			kept[f] = true
		}
		for _, f := range all {
			if kept[f] {
				continue
			}
			// Dropped: find the equivalent output fault and compare test
			// sets over all input patterns.
			g := c.Nodes[f.Net].Fanout[0]
			matched := false
			for _, sa := range []bool{false, true} {
				if !sameTestSet(c, f, Fault{Net: g, StuckAt: sa}) {
					continue
				}
				matched = true
				break
			}
			if !matched {
				t.Errorf("trial %d: dropped fault %s has no equivalent on gate %s",
					trial, f.Name(c), c.Nodes[g].Name)
			}
		}
	}
}

func sameTestSet(c *logic.Circuit, a, b Fault) bool {
	nin := len(c.Inputs)
	for pat := 0; pat < 1<<uint(nin); pat++ {
		in := make([]bool, nin)
		for i := range in {
			in[i] = pat>>uint(i)&1 == 1
		}
		if VerifyTest(c, a, in) != VerifyTest(c, b, in) {
			return false
		}
	}
	return true
}

func TestSubCircuit(t *testing.T) {
	c := logic.Figure4a()
	f := Fault{Net: c.MustLookup("g"), StuckAt: false}
	sub, err := SubCircuit(c, f)
	if err != nil {
		t.Fatal(err)
	}
	// Fanout of g is {g, i}; the transitive fanin of {g, i} includes h and
	// its whole cone, so C_ψ^sub is the entire 9-node circuit here.
	if sub.NumNodes() != 9 {
		t.Errorf("C_ψ^sub nodes = %d, want 9 (%v)", sub.NumNodes(), sub.Names(sub.TopoOrder()))
	}
	// A genuinely partial case: fault on d in a circuit where d's fanout
	// cone is shallow — use fault on input a: fanout {a,h,i}, fanin of
	// that is everything except nothing... for fig4a any output-reaching
	// fault pulls in the whole circuit, so instead check cut inputs stay
	// inputs.
	if hID, ok := sub.Lookup("h"); !ok || sub.Nodes[hID].Type != logic.And {
		t.Error("h must appear as a gate inside C_ψ^sub")
	}
	if len(sub.Outputs) != 1 || sub.Nodes[sub.Outputs[0]].Name != "i" {
		t.Errorf("sub outputs = %v", sub.Names(sub.Outputs))
	}
	if _, err := SubCircuit(c, Fault{Net: 99}); err == nil {
		t.Error("out-of-range fault accepted")
	}
}

func TestMiterStructure(t *testing.T) {
	c := logic.Figure4a()
	fID := c.MustLookup("f")
	m, err := NewMiter(c, Fault{Net: fID, StuckAt: true})
	if err != nil {
		t.Fatal(err)
	}
	// Good copies: whole circuit (9). Faulty copies: fanout of f = {f,h,i}
	// (3). XORs: 1. Total 13 nodes.
	if m.Circuit.NumNodes() != 13 {
		t.Errorf("miter nodes = %d, want 13", m.Circuit.NumNodes())
	}
	if m.GoodFault != m.GoodOf[fID] {
		t.Error("GoodFault mapping wrong")
	}
	if m.FaultyOf[fID] < 0 || m.Circuit.Nodes[m.FaultyOf[fID]].Type != logic.Const1 {
		t.Error("faulty fault-net must be a Const1 driver for s-a-1")
	}
	if len(m.Observable) != 1 || m.Observable[0] != c.MustLookup("i") {
		t.Errorf("observable = %v", m.Observable)
	}
	if err := m.Circuit.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestMiterUnobservable(t *testing.T) {
	// A net with no path to any primary output.
	b := logic.NewBuilder("dead")
	x := b.Input("x")
	y := b.Input("y")
	b.Gate(logic.And, "dead", x, y) // not an output, no readers
	o := b.Gate(logic.Or, "o", x, y)
	b.MarkOutput(o)
	c := b.MustBuild()
	_, err := NewMiter(c, Fault{Net: c.MustLookup("dead"), StuckAt: false})
	if err != ErrUnobservable {
		t.Errorf("err = %v, want ErrUnobservable", err)
	}
}

// TestATPGFigure4a generates tests for all faults of the worked example
// and cross-checks every outcome against exhaustive simulation.
func TestATPGFigure4a(t *testing.T) {
	c := logic.Figure4a()
	eng := &Engine{}
	for _, f := range AllFaults(c) {
		res, err := eng.TestFault(c, f)
		if err != nil {
			t.Fatalf("%s: %v", f.Name(c), err)
		}
		want := exhaustivelyTestable(c, f)
		switch res.Status {
		case Detected:
			if !want {
				t.Errorf("%s: detected but exhaustively untestable", f.Name(c))
			}
			if !VerifyTest(c, f, res.Vector) {
				t.Errorf("%s: vector fails verification", f.Name(c))
			}
		case Untestable:
			if want {
				t.Errorf("%s: declared untestable but a test exists", f.Name(c))
			}
		default:
			t.Errorf("%s: aborted", f.Name(c))
		}
		if res.Vars <= 0 || res.Clauses <= 0 {
			t.Errorf("%s: instance size not recorded (%d vars %d clauses)", f.Name(c), res.Vars, res.Clauses)
		}
	}
}

func exhaustivelyTestable(c *logic.Circuit, f Fault) bool {
	nin := len(c.Inputs)
	for pat := 0; pat < 1<<uint(nin); pat++ {
		in := make([]bool, nin)
		for i := range in {
			in[i] = pat>>uint(i)&1 == 1
		}
		if VerifyTest(c, f, in) {
			return true
		}
	}
	return false
}

// TestATPGAgainstExhaustive: property test over random circuits. On
// every fault the paper's solvers, run directly on Miter.Encode's
// ATPG-SAT formula, and TestFault must agree with exhaustive simulation,
// and every model's extracted vector must detect the fault.
func TestATPGAgainstExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	eng := &Engine{}
	solvers := map[string]sat.Solver{"simple": &sat.Simple{}, "caching": &sat.Caching{}}
	for trial := 0; trial < 8; trial++ {
		c := randomCircuit(rng, 10)
		for _, f := range AllFaults(c) {
			want := exhaustivelyTestable(c, f)
			res, err := eng.TestFault(c, f)
			if err != nil {
				t.Fatalf("trial %d TestFault %s: %v", trial, f.Name(c), err)
			}
			if (res.Status == Detected) != want {
				t.Errorf("trial %d TestFault %s: status %v, testable=%v", trial, f.Name(c), res.Status, want)
			}
			m, err := NewMiter(c, f)
			if err == ErrUnobservable {
				if want {
					t.Errorf("trial %d %s: unobservable, but a test exists", trial, f.Name(c))
				}
				continue
			}
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, f.Name(c), err)
			}
			formula, err := m.Encode()
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, f.Name(c), err)
			}
			for name, s := range solvers {
				sol := s.Solve(formula)
				if (sol.Status == sat.Sat) != want {
					t.Errorf("trial %d %s %s: %v, testable=%v", trial, name, f.Name(c), sol.Status, want)
				}
				if sol.Status == sat.Sat && !VerifyTest(c, f, m.ExtractTest(c, sol.Model)) {
					t.Errorf("trial %d %s %s: model's vector misses the fault", trial, name, f.Name(c))
				}
			}
		}
	}

	// The production path — region groups on the incremental CDCL core —
	// on mid-size circuits, with no pre-phase and no dropping so every
	// fault reaches the solver. The checker shares no code with it: each
	// Untestable verdict is refuted against all 2^n input patterns by
	// brute-force fault simulation, and each Detected vector re-simulated.
	for _, p := range []gen.RandomParams{
		{Inputs: 12, Gates: 120, Seed: 5},
		{Inputs: 10, Gates: 60, Seed: 7},
	} {
		c := gen.Random(p)
		faults := AllFaults(c)
		sum, err := (&Engine{}).RunFaults(context.Background(), c, faults, RunOptions{})
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		if len(sum.Results) != len(faults) {
			t.Fatalf("%s: %d results for %d faults", c.Name, len(sum.Results), len(faults))
		}
		words := exhaustivePatternWords(len(c.Inputs))
		untestable := 0
		for _, r := range sum.Results {
			switch r.Status {
			case Detected:
				if !VerifyTest(c, r.Fault, r.Vector) {
					t.Errorf("%s %s: vector misses the fault", c.Name, r.Fault.Name(c))
				}
			case Untestable:
				untestable++
				for _, w := range words {
					if faultsim.ReferenceDetects(c, w, 64, r.Fault.Net, r.Fault.StuckAt) != 0 {
						t.Errorf("%s %s: untestable, but an input pattern detects it", c.Name, r.Fault.Name(c))
						break
					}
				}
			default:
				t.Errorf("%s %s: status %v on an unlimited run", c.Name, r.Fault.Name(c), r.Status)
			}
		}
		if untestable == 0 {
			t.Errorf("%s: no untestable fault to check", c.Name)
		}
	}
}

// exhaustivePatternWords packs all 2^n assignments of n inputs into
// 64-pattern words: word w, bit b is pattern 64w+b, whose input i is bit
// i of the pattern number. Below 6 inputs the one word repeats the
// assignments.
func exhaustivePatternWords(n int) [][]uint64 {
	words := make([][]uint64, 1<<uint(max(n-6, 0)))
	for w := range words {
		words[w] = make([]uint64, n)
		for b := 0; b < 64; b++ {
			pat := w<<6 | b
			for i := 0; i < n; i++ {
				if pat>>uint(i)&1 == 1 {
					words[w][i] |= 1 << uint(b)
				}
			}
		}
	}
	return words
}

// TestUntestableFaultDetected builds a circuit with redundancy: the fault
// on the redundant net must be proved untestable.
func TestUntestableFault(t *testing.T) {
	// o = OR(x, AND(x, y)): the AND is redundant (absorption); AND/0 is
	// untestable.
	b := logic.NewBuilder("redundant")
	x := b.Input("x")
	y := b.Input("y")
	a := b.Gate(logic.And, "a", x, y)
	o := b.Gate(logic.Or, "o", x, a)
	b.MarkOutput(o)
	c := b.MustBuild()
	eng := &Engine{}
	res, err := eng.TestFault(c, Fault{Net: a, StuckAt: false})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Untestable {
		t.Errorf("a/0 status = %v, want untestable (absorbed by x)", res.Status)
	}
	// a/1 is testable: x=0, y arbitrary... o_good = 0 requires x=0, a=0;
	// faulty a=1 → o=1. Detected with x=0.
	res, err = eng.TestFault(c, Fault{Net: a, StuckAt: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Detected {
		t.Errorf("a/1 status = %v, want detected", res.Status)
	}
}

func TestRunFullCircuit(t *testing.T) {
	c := logic.Figure4a()
	eng := &Engine{}
	sum, err := eng.Run(context.Background(), c, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Total != 18 {
		t.Errorf("total = %d", sum.Total)
	}
	if sum.Detected+sum.Untestable != sum.Total || sum.Aborted != 0 {
		t.Errorf("summary = %+v", sum)
	}
	if sum.Coverage() != 1 {
		t.Errorf("coverage = %v, want 1 (every testable fault detected)", sum.Coverage())
	}
	if len(sum.Vectors) != sum.Detected {
		t.Errorf("vectors = %d, detected = %d", len(sum.Vectors), sum.Detected)
	}
}

func TestRunWithCollapseAndDrop(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	c := randomCircuit(rng, 30)
	eng := &Engine{}
	plain, err := eng.Run(context.Background(), c, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	dropped, err := eng.Run(context.Background(), c, RunOptions{Collapse: true, DropDetected: true})
	if err != nil {
		t.Fatal(err)
	}
	if dropped.Total >= plain.Total {
		t.Errorf("collapsing did not reduce fault count: %d vs %d", dropped.Total, plain.Total)
	}
	// Both runs must achieve full coverage of testable faults.
	if plain.Coverage() != 1 || dropped.Coverage() != 1 {
		t.Errorf("coverage: plain %v dropped %v", plain.Coverage(), dropped.Coverage())
	}
	// The compacted run must invoke the solver less often.
	if dropped.DroppedByFaultSim == 0 {
		t.Log("note: fault simulation dropped nothing on this circuit")
	}
	if len(dropped.Results) > dropped.Total {
		t.Error("more solver calls than faults")
	}
}

// TestRunFaultsRejectsBadNet: RunFaults is public, so its fault list is
// outside input. A fault whose net is not a node of the circuit must be
// an error at entry, pre-phase on or off, at any worker count, and
// never a panic in a worker goroutine that no caller can recover.
func TestRunFaultsRejectsBadNet(t *testing.T) {
	c := gen.RippleAdder(2)
	for _, net := range []int{-1, len(c.Nodes) + 5} {
		faults := append(AllFaults(c), Fault{Net: net, StuckAt: true})
		want := fmt.Sprintf("atpg: fault net %d out of range", net)
		for _, rpt := range []int{0, DefaultRPTBatches} {
			for _, workers := range []int{1, 4} {
				opt := DefaultRunOptions()
				opt.RPTBatches = rpt
				sum, err := (&Engine{Workers: workers}).RunFaults(context.Background(), c, faults, opt)
				if sum != nil || err == nil || err.Error() != want {
					t.Errorf("net %d, rpt-batches %d, j%d: summary %v, err %v; want %q", net, rpt, workers, sum, err, want)
				}
			}
		}
	}
}

// TestCompactedTestSetCoversCollapsedFaults: the vectors from a
// DropDetected run must detect every fault the run reported as detected
// or dropped.
func TestCompactedTestSetCovers(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	c := randomCircuit(rng, 25)
	eng := &Engine{}
	sum, err := eng.Run(context.Background(), c, RunOptions{Collapse: true, DropDetected: true})
	if err != nil {
		t.Fatal(err)
	}
	faults := Collapse(c, AllFaults(c))
	for _, f := range faults {
		if !exhaustivelyTestable(c, f) {
			continue
		}
		covered := false
		for _, v := range sum.Vectors {
			if VerifyTest(c, f, v) {
				covered = true
				break
			}
		}
		if !covered {
			t.Errorf("testable fault %s not covered by the compacted set", f.Name(c))
		}
	}
}

func randomCircuit(rng *rand.Rand, n int) *logic.Circuit {
	b := logic.NewBuilder("rand")
	nin := 3 + rng.Intn(3)
	for i := 0; i < nin; i++ {
		b.Input("in" + string(rune('a'+i)))
	}
	types := []logic.GateType{logic.And, logic.Or, logic.Nand, logic.Nor, logic.Xor, logic.Not}
	for i := 0; i < n; i++ {
		gt := types[rng.Intn(len(types))]
		arity := 1
		if gt != logic.Not {
			arity = 1 + rng.Intn(3)
		}
		fanin := make([]int, arity)
		neg := make([]bool, arity)
		for j := range fanin {
			fanin[j] = rng.Intn(b.NumNodes())
			neg[j] = rng.Intn(4) == 0
		}
		b.GateN(gt, "g"+string(rune('A'+i%26))+string(rune('0'+i/26)), fanin, neg)
	}
	b.MarkOutput(b.NumNodes() - 1)
	if b.NumNodes() >= 2 {
		b.MarkOutput(b.NumNodes() - 2)
	}
	return b.MustBuild()
}

// TestCollapseKeepsPrimaryOutputFaults: a net that is both a primary
// output and the single input of a downstream gate is directly
// observable, so its faults must survive collapsing. (o1 = NOT x is a PO
// and also feeds o2; x/0 at o1 is detectable even when masked at o2.)
func TestCollapseKeepsPrimaryOutputFaults(t *testing.T) {
	b := logic.NewBuilder("pofault")
	x := b.Input("x")
	y := b.Input("y")
	o1 := b.Gate(logic.Not, "o1", x)
	o2 := b.Gate(logic.Or, "o2", o1, y) // masks o1 when y = 1
	b.MarkOutput(o1)
	b.MarkOutput(o2)
	c := b.MustBuild()
	col := Collapse(c, AllFaults(c))
	for _, want := range []Fault{{Net: o1, StuckAt: false}, {Net: o1, StuckAt: true}} {
		found := false
		for _, f := range col {
			if f == want {
				found = true
			}
		}
		if !found {
			t.Errorf("fault %s on a primary output dropped by collapsing", want.Name(c))
		}
	}
	// The demonstration vector: x=0 makes good o1 = 1 (faulty 0), and
	// y=1 masks the effect at o2 — only the direct o1 observation detects,
	// which is exactly what naive collapsing onto o2 would have lost.
	if !VerifyTest(c, Fault{Net: o1, StuckAt: false}, []bool{false, true}) {
		t.Error("x=0,y=1 should detect o1/0 at the o1 output")
	}
}
