package atpg

import (
	"bytes"
	"context"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"atpgeasy/internal/bench"
	"atpgeasy/internal/cnf"
	"atpgeasy/internal/decomp"
	"atpgeasy/internal/gen"
	"atpgeasy/internal/logic"
)

// collisionBench returns a 7-line netlist whose BUF net is named net. The
// names r~f0, r~flt and z~xor are the ones a named-circuit construction
// of the ATPG-SAT instance would invent for its own copies of r and z.
func collisionBench(net string) []byte {
	return []byte(strings.ReplaceAll(`INPUT(a)
INPUT(b)
OUTPUT(z)
na = NOT(a)
r = AND(a, na)
NET = BUF(b)
z = OR(r, NET)
`, "NET", net))
}

// collisionNets names the BUF nets of the collision netlists.
var collisionNets = []string{"r~f0", "r~flt", "z~xor"}

// formulaTestCircuits returns the encoder's reference circuits, each raw
// and technology-decomposed: two random netlists, an adder, a
// multiplier, a many-output decoder, an ALU, an XOR tree and the
// collision netlists.
func formulaTestCircuits(t *testing.T) map[string]*logic.Circuit {
	t.Helper()
	raw := map[string]*logic.Circuit{
		"rand1":   gen.Random(gen.RandomParams{Inputs: 10, Gates: 60, Seed: 7}),
		"rand2":   gen.Random(gen.RandomParams{Inputs: 12, Gates: 120, Seed: 5}),
		"cla4":    gen.CarryLookaheadAdder(4),
		"mult4":   gen.ArrayMultiplier(4),
		"dec5":    gen.Decoder(5),
		"alu4":    gen.ALU(4),
		"parity8": gen.ParityTree(8),
	}
	for _, net := range collisionNets {
		c, err := bench.Read(bytes.NewReader(collisionBench(net)), net)
		if err != nil {
			t.Fatalf("%s: %v", net, err)
		}
		raw[net] = c
	}
	out := make(map[string]*logic.Circuit, 2*len(raw))
	for name, c := range raw {
		d, err := decomp.Decompose(c, 3)
		if err != nil {
			t.Fatalf("%s: decompose: %v", name, err)
		}
		out[name] = c
		out[name+"/decomposed"] = d
	}
	return out
}

// TestFormulaMatchesMiter pins the engine's encoder to the reference
// construction, fault by fault: a one-member group's good copy is the
// leading clauses of Miter.Encode, over the miter's good-copy variables,
// and the clause after it is no longer a good-copy clause; a member is
// unobservable exactly where NewMiter reports ErrUnobservable; and
// vector extraction agrees with Miter.ExtractTest on random models.
func TestFormulaMatchesMiter(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for name, c := range formulaTestCircuits(t) {
		fe := newFormulaEncoder(c, newRegionTable(c).head)
		for _, f := range AllFaults(c) {
			fe.pair() // a fresh pairing: the formula comes with its good copy as base
			part, err := fe.encode([]Fault{f})
			if err != nil {
				t.Fatalf("%s %s: encode: %v", name, f.Name(c), err)
			}
			m, merr := NewMiter(c, f)
			if fe.unobservable[0] != (merr == ErrUnobservable) {
				t.Fatalf("%s %s: encoder unobservable %t, NewMiter %v", name, f.Name(c), fe.unobservable[0], merr)
			}
			if merr == ErrUnobservable {
				if part != nil {
					t.Fatalf("%s %s: unobservable fault got a formula", name, f.Name(c))
				}
				continue
			}
			if merr != nil {
				t.Fatalf("%s %s: NewMiter: %v", name, f.Name(c), merr)
			}
			want, err := m.Encode()
			if err != nil {
				t.Fatalf("%s %s: Miter.Encode: %v", name, f.Name(c), err)
			}
			goodVars := 0
			for _, g := range m.GoodOf {
				if g >= 0 {
					goodVars++
				}
			}
			base := fe.base
			if part == nil || base == nil {
				t.Fatalf("%s %s: formula %v, base %v for an observable fault", name, f.Name(c), part, base)
			}
			nb := len(base.Clauses)
			if base.NumVars != goodVars || nb >= want.NumClauses() ||
				!slices.EqualFunc(base.Clauses, want.Clauses[:nb], slices.Equal) {
				t.Fatalf("%s %s: good copy (%d vars, %d clauses) is not Miter.Encode's leading clauses (%d good vars, %d clauses)",
					name, f.Name(c), base.NumVars, nb, goodVars, want.NumClauses())
			}
			if !slices.ContainsFunc(want.Clauses[nb], func(l cnf.Lit) bool { return l.Var() >= goodVars }) {
				t.Fatalf("%s %s: Miter.Encode's clause %d %v is a good-copy clause past the encoder's good copy",
					name, f.Name(c), nb, want.Clauses[nb])
			}
			for trial := 0; trial < 4; trial++ {
				model := make([]bool, want.NumVars)
				for v := range model {
					model[v] = rng.Intn(2) == 1
				}
				if g, w := fe.extract(model), m.ExtractTest(c, model); !reflect.DeepEqual(g, w) {
					t.Fatalf("%s %s: extract %v, Miter.ExtractTest %v", name, f.Name(c), g, w)
				}
			}
		}
	}
}

// TestEncodeRejectsTwoRegions: a group formula covers one fanout-free
// region, so members from two regions, like a net out of range, are an
// error and not a formula.
func TestEncodeRejectsTwoRegions(t *testing.T) {
	c := gen.CarryLookaheadAdder(4)
	rt := newRegionTable(c)
	fe := newFormulaEncoder(c, rt.head)
	faults := AllFaults(c)
	var a, b Fault
	for _, f := range faults[1:] {
		if rt.head[f.Net] != rt.head[faults[0].Net] {
			a, b = faults[0], f
			break
		}
	}
	if a == b {
		t.Fatal("every fault is in one region")
	}
	for _, members := range [][]Fault{{a, b}, {b, a}, {a, a, b}} {
		if f, err := fe.encode(members); err == nil || !strings.Contains(err.Error(), "outside the region") {
			t.Errorf("members %v: encode returned %v, %v; want an error naming the region", members, f, err)
		}
	}
	if f, err := fe.encode([]Fault{a, {Net: len(c.Nodes)}}); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("a net out of range: encode returned %v, %v", f, err)
	}
	if f, err := fe.encode([]Fault{a}); err != nil || f == nil {
		t.Errorf("one region after the errors: encode returned %v, %v", f, err)
	}
}

// TestPairedFormulaIsBasePlusPart replays a one-worker sweep's groups, in
// group order, on a worker's encoder and instance. Each group's loaded
// part, on top of the good copy the instance holds as its base, must be
// the full formula a freshly paired encoder writes as base and part,
// clause for clause; and every member of a group that reused the base
// must report that full formula's size as its Result.Vars and Clauses.
func TestPairedFormulaIsBasePlusPart(t *testing.T) {
	c, err := decomp.Decompose(gen.Comparator(24), 3)
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultRunOptions()
	opt.RPTBatches, opt.DropDetected = 0, false // every fault is solved
	sum, err := (&Engine{Workers: 1}).Run(context.Background(), c, opt)
	if err != nil {
		t.Fatal(err)
	}
	ids, byGroup := sweepGroups(sum)
	rt := newRegionTable(c)
	ws := newScratch(c, rt.head)
	full := newFormulaEncoder(c, rt.head)
	var base []cnf.Clause // the clauses of the base ws.inc holds
	reused := 0
	for _, id := range ids {
		rs := byGroup[id]
		members := make([]Fault, len(rs))
		for k, r := range rs {
			members[k] = r.Fault
		}
		part, _, err := ws.build(members)
		if err != nil {
			t.Fatal(err)
		}
		full.pair()
		wantPart, err := full.encode(members)
		if err != nil {
			t.Fatal(err)
		}
		if (part == nil) != (wantPart == nil) {
			t.Fatalf("group %d: paired formula %v, full formula %v", id, part, wantPart)
		}
		if part == nil {
			continue
		}
		want := slices.Concat(full.base.Clauses, wantPart.Clauses)
		if ws.enc.base != nil {
			base = base[:0]
			for _, cl := range ws.enc.base.Clauses {
				base = append(base, slices.Clone(cl)) // the encoder reuses its slab
			}
		} else {
			reused++
		}
		if got := slices.Concat(base, part.Clauses); part.NumVars != wantPart.NumVars || !slices.EqualFunc(got, want, slices.Equal) {
			t.Fatalf("group %d: base and part (%d vars, %d clauses) are not the full formula (%d vars, %d clauses)",
				id, part.NumVars, len(got), wantPart.NumVars, len(want))
		}
		if ws.enc.base != nil {
			continue
		}
		for k, r := range rs {
			if !full.unobservable[k] && (r.Vars != wantPart.NumVars || r.Clauses != len(want)) {
				t.Fatalf("group %d: %s reports %d vars, %d clauses; its full formula has %d, %d",
					id, r.Fault.Name(c), r.Vars, r.Clauses, wantPart.NumVars, len(want))
			}
		}
	}
	if reused == 0 {
		t.Fatalf("no group of %d reused its base", len(ids))
	}
}

// sweepGroups groups a run's solved results by region group, returning
// the group ids in ascending (plan) order.
func sweepGroups(sum *Summary) ([]int, map[int][]Result) {
	byGroup := make(map[int][]Result)
	var ids []int
	for _, r := range sum.Results {
		if byGroup[r.Group] == nil {
			ids = append(ids, r.Group)
		}
		byGroup[r.Group] = append(byGroup[r.Group], r)
	}
	slices.Sort(ids)
	return ids, byGroup
}
