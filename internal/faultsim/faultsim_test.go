package faultsim

import (
	"fmt"
	"math/rand"
	"testing"

	"atpgeasy/internal/gen"
	"atpgeasy/internal/logic"
)

func TestPackPatterns(t *testing.T) {
	c := logic.Figure4a()
	vecs := [][]bool{
		{true, false, false, false, false},
		{false, true, false, false, false},
	}
	words, err := PackPatterns(c, vecs)
	if err != nil {
		t.Fatal(err)
	}
	if words[0] != 0b01 {
		t.Errorf("input a word = %b", words[0])
	}
	if words[1] != 0b10 {
		t.Errorf("input b word = %b", words[1])
	}
}

func TestPackPatternsErrors(t *testing.T) {
	c := logic.Figure4a()
	if _, err := PackPatterns(c, make([][]bool, 65)); err == nil {
		t.Error("65 patterns accepted")
	}
	if _, err := PackPatterns(c, [][]bool{{true}}); err == nil {
		t.Error("short pattern accepted")
	}
}

func TestNewSimulatorErrors(t *testing.T) {
	c := logic.Figure4a()
	if _, err := NewSimulator(c, make([]uint64, 2), 1); err == nil {
		t.Error("wrong input-word count accepted")
	}
	if _, err := NewSimulator(c, make([]uint64, 5), 65); err == nil {
		t.Error("nPatterns 65 accepted")
	}
}

// TestDetectsMatchesScalar cross-checks the event-driven parallel fault
// simulator against scalar simulation of the forced circuit.
func TestDetectsMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := randomCircuit(rng, 40)
	nPat := 17
	vecs := make([][]bool, nPat)
	for p := range vecs {
		vecs[p] = make([]bool, len(c.Inputs))
		for i := range vecs[p] {
			vecs[p][i] = rng.Intn(2) == 1
		}
	}
	words, err := PackPatterns(c, vecs)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewSimulator(c, words, nPat)
	if err != nil {
		t.Fatal(err)
	}
	for net := 0; net < c.NumNodes(); net++ {
		for _, sa := range []bool{false, true} {
			got := sim.Detects(net, sa)
			var want uint64
			for p := 0; p < nPat; p++ {
				good := c.Simulate(vecs[p])
				faulty := c.SimulateWith(vecs[p], map[int]bool{net: sa})
				for _, o := range c.Outputs {
					if good[o] != faulty[o] {
						want |= 1 << uint(p)
						break
					}
				}
			}
			if got != want {
				t.Fatalf("net %d sa%v: got %b, want %b", net, sa, got, want)
			}
		}
	}
}

func TestDetectsFigure4a(t *testing.T) {
	c := logic.Figure4a()
	// a=1,b=1,c=0,d=0,e=0 → f=1,h=1,g=1,i=1; f/0 flips i. f/1 does not
	// (already 1).
	vec := [][]bool{{true, true, false, false, false}}
	words, _ := PackPatterns(c, vec)
	sim, err := NewSimulator(c, words, 1)
	if err != nil {
		t.Fatal(err)
	}
	f := c.MustLookup("f")
	if sim.Detects(f, false) != 1 {
		t.Error("f/0 should be detected by the activating vector")
	}
	if sim.Detects(f, true) != 0 {
		t.Error("f/1 must not be detected when f is already 1")
	}
}

func TestCoverage(t *testing.T) {
	c := logic.Figure4a()
	vec := [][]bool{{true, true, false, false, false}}
	words, _ := PackPatterns(c, vec)
	sim, _ := NewSimulator(c, words, 1)
	f, i := c.MustLookup("f"), c.MustLookup("i")
	masks := sim.Coverage([]int{f, i}, []bool{false, false})
	if masks[0] != 1 || masks[1] != 1 {
		t.Errorf("coverage masks = %v", masks)
	}
}

// TestEpochWraparound forces the uint32 epoch to overflow (as it would
// after 2^32 Detects queries) and checks that stale coneMark stamps are
// cleared instead of aliasing the restarted epoch: every query across the
// wrap must match a fresh simulator, and the stamp array must hold no
// leftovers from before the wrap.
func TestEpochWraparound(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := randomCircuit(rng, 30)
	nPat := 13
	vecs := make([][]bool, nPat)
	for p := range vecs {
		vecs[p] = make([]bool, len(c.Inputs))
		for i := range vecs[p] {
			vecs[p][i] = rng.Intn(2) == 1
		}
	}
	words, err := PackPatterns(c, vecs)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewSimulator(c, words, nPat)
	if err != nil {
		t.Fatal(err)
	}
	// Populate the stamp arrays with genuine stamps, then jump to the last
	// epoch before overflow. The next query wraps: without the reset,
	// stamps equal to the restarted epoch (and the zero default) would
	// fake divergence or queue membership.
	for net := 0; net < c.NumNodes(); net++ {
		sim.Detects(net, true)
	}
	sim.epoch = ^uint32(0)
	// Plant stamps that alias the post-wrap epoch value 1 exactly.
	sim.divergedAt[c.NumNodes()-1] = 1
	sim.queuedAt[c.NumNodes()-1] = 1
	fresh, err := NewSimulator(c, words, nPat)
	if err != nil {
		t.Fatal(err)
	}
	for q := 0; q < 3; q++ { // queries straddling the wrap
		for net := 0; net < c.NumNodes(); net++ {
			for _, sa := range []bool{false, true} {
				if got, want := sim.Detects(net, sa), fresh.Detects(net, sa); got != want {
					t.Fatalf("query %d net %d sa%v across wrap: got %b, want %b", q, net, sa, got, want)
				}
			}
		}
	}
	if sim.epoch == 0 || sim.epoch > uint32(6*c.NumNodes()) {
		t.Errorf("epoch = %d after wrap, want a small restarted value", sim.epoch)
	}
	for id, m := range sim.divergedAt {
		if m > sim.epoch {
			t.Errorf("node %d holds stale divergence stamp %d > epoch %d after wrap", id, m, sim.epoch)
		}
	}
	for id, m := range sim.queuedAt {
		if m > sim.epoch {
			t.Errorf("node %d holds stale queue stamp %d > epoch %d after wrap", id, m, sim.epoch)
		}
	}
}

func TestZeroPatterns(t *testing.T) {
	c := logic.Figure4a()
	words, _ := PackPatterns(c, nil)
	sim, err := NewSimulator(c, words, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := sim.Detects(c.MustLookup("f"), false); got != 0 {
		t.Errorf("no patterns but Detects = %b", got)
	}
}

// scalarDetects is the per-pattern oracle: one scalar simulation of the
// good and faulty circuit per pattern.
func scalarDetects(c *logic.Circuit, vecs [][]bool, net int, sa bool) uint64 {
	var want uint64
	for p := range vecs {
		good := c.Simulate(vecs[p])
		faulty := c.SimulateWith(vecs[p], map[int]bool{net: sa})
		for _, o := range c.Outputs {
			if good[o] != faulty[o] {
				want |= 1 << uint(p)
				break
			}
		}
	}
	return want
}

func randomVecs(rng *rand.Rand, c *logic.Circuit, nPat int) [][]bool {
	vecs := make([][]bool, nPat)
	for p := range vecs {
		vecs[p] = make([]bool, len(c.Inputs))
		for i := range vecs[p] {
			vecs[p][i] = rng.Intn(2) == 1
		}
	}
	return vecs
}

// allFaultsAgree checks Detects, DetectsAny, and ReferenceDetects against
// the scalar oracle for every fault in the circuit.
func allFaultsAgree(t *testing.T, c *logic.Circuit, vecs [][]bool) {
	t.Helper()
	words, err := PackPatterns(c, vecs)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewSimulator(c, words, len(vecs))
	if err != nil {
		t.Fatal(err)
	}
	for net := 0; net < c.NumNodes(); net++ {
		for _, sa := range []bool{false, true} {
			want := scalarDetects(c, vecs, net, sa)
			if got := sim.Detects(net, sa); got != want {
				t.Fatalf("%s: net %d (%s) sa%v: Detects %b, want %b",
					c.Name, net, c.Nodes[net].Name, sa, got, want)
			}
			if got := ReferenceDetects(c, words, len(vecs), net, sa); got != want {
				t.Fatalf("%s: net %d sa%v: ReferenceDetects %b, want %b", c.Name, net, sa, got, want)
			}
			any := sim.DetectsAny(net, sa)
			if (any != 0) != (want != 0) {
				t.Fatalf("%s: net %d sa%v: DetectsAny %b, Detects %b", c.Name, net, sa, any, want)
			}
			if any&^want != 0 {
				t.Fatalf("%s: net %d sa%v: DetectsAny %b not a subset of %b", c.Name, net, sa, any, want)
			}
		}
	}
}

// TestXorXnorGates exercises the event-driven wave through XOR/XNOR
// gates, whose output flips on any single-input divergence — the gate
// family where a "diverged value equals good value" stop is rarest.
func TestXorXnorGates(t *testing.T) {
	b := logic.NewBuilder("xorchain")
	a := b.Input("a")
	c0 := b.Input("b")
	d := b.Input("c")
	x1 := b.Gate(logic.Xor, "x1", a, c0)
	x2 := b.Gate(logic.Xnor, "x2", x1, d)
	x3 := b.GateN(logic.Xor, "x3", []int{x2, a, c0}, []bool{true, false, false})
	x4 := b.Gate(logic.Xnor, "x4", x3, x1)
	b.MarkOutput(x4)
	b.MarkOutput(x2)
	c := b.MustBuild()
	rng := rand.New(rand.NewSource(7))
	allFaultsAgree(t, c, randomVecs(rng, c, 8)) // all 8 input patterns
}

// TestConstantDrivers covers circuits with Const0/Const1 nodes: faults on
// the constant nets themselves (only the opposite-polarity fault is ever
// activatable) and on gates fed by constants.
func TestConstantDrivers(t *testing.T) {
	b := logic.NewBuilder("consts")
	a := b.Input("a")
	one := b.Const("one", true)
	zero := b.Const("zero", false)
	g1 := b.Gate(logic.And, "g1", a, one)
	g2 := b.Gate(logic.Or, "g2", g1, zero)
	g3 := b.GateN(logic.Nand, "g3", []int{g2, one}, []bool{false, true})
	b.MarkOutput(g2)
	b.MarkOutput(g3)
	c := b.MustBuild()
	vecs := [][]bool{{false}, {true}}
	allFaultsAgree(t, c, vecs)
	// Spot-check the polarity logic: forcing a constant net to its own
	// value is never activated; the opposite value propagates.
	words, _ := PackPatterns(c, vecs)
	sim, _ := NewSimulator(c, words, len(vecs))
	if got := sim.Detects(one, true); got != 0 {
		t.Errorf("one/1 detected (%b) but the fault never activates", got)
	}
	if got := sim.Detects(one, false); got != 0b10 {
		t.Errorf("one/0 mask = %b, want 0b10 (a=1 propagates through g1,g2)", got)
	}
}

// TestFaultNetIsOutput covers fault nets that are themselves primary
// outputs — both a PO with no fanout (divergence detected before any
// event is queued) and a PO that also feeds further logic, plus a primary
// input marked directly as an output.
func TestFaultNetIsOutput(t *testing.T) {
	b := logic.NewBuilder("pofaults")
	a := b.Input("a")
	x := b.Input("b")
	g1 := b.Gate(logic.And, "g1", a, x) // PO with fanout
	g2 := b.Gate(logic.Not, "g2", g1)   // PO, no fanout
	b.MarkOutput(a)                     // input as output
	b.MarkOutput(g1)
	b.MarkOutput(g2)
	c := b.MustBuild()
	vecs := [][]bool{{false, false}, {false, true}, {true, false}, {true, true}}
	allFaultsAgree(t, c, vecs)
	// DetectsAny on an output fault net must exit before touching fanout.
	words, _ := PackPatterns(c, vecs)
	sim, _ := NewSimulator(c, words, len(vecs))
	if got := sim.DetectsAny(g1, true); got == 0 {
		t.Error("g1/1 on an output net not detected by DetectsAny")
	}
}

// TestEventDrivenMatchesReference property-tests the event-driven
// simulator against full-circuit forced re-simulation on generated
// random circuits, over every fault and several seeds.
func TestEventDrivenMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		c := gen.Random(gen.RandomParams{Inputs: 12, Gates: 150, Seed: seed})
		rng := rand.New(rand.NewSource(seed * 100))
		nPat := 1 + rng.Intn(64)
		vecs := randomVecs(rng, c, nPat)
		words, err := PackPatterns(c, vecs)
		if err != nil {
			t.Fatal(err)
		}
		sim, err := NewSimulator(c, words, nPat)
		if err != nil {
			t.Fatal(err)
		}
		for net := 0; net < c.NumNodes(); net++ {
			for _, sa := range []bool{false, true} {
				got := sim.Detects(net, sa)
				want := ReferenceDetects(c, words, nPat, net, sa)
				if got != want {
					t.Fatalf("seed %d net %d sa%v: event-driven %b, reference %b", seed, net, sa, got, want)
				}
			}
		}
	}
}

// TestDetectAll checks the batch API against per-fault queries and its
// buffer-reuse contract.
func TestDetectAll(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	c := randomCircuit(rng, 50)
	vecs := randomVecs(rng, c, 32)
	words, err := PackPatterns(c, vecs)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewSimulator(c, words, 32)
	if err != nil {
		t.Fatal(err)
	}
	var nets []int
	var sas []bool
	for net := 0; net < c.NumNodes(); net++ {
		nets = append(nets, net, net)
		sas = append(sas, false, true)
	}
	buf := make([]uint64, len(nets))
	got := sim.DetectAll(nets, sas, buf, false)
	if &got[0] != &buf[0] {
		t.Error("DetectAll did not reuse the provided buffer")
	}
	for i := range nets {
		if want := sim.Detects(nets[i], sas[i]); got[i] != want {
			t.Fatalf("fault %d (net %d sa%v): DetectAll %b, Detects %b", i, nets[i], sas[i], got[i], want)
		}
	}
	// Early mode: nonzero agreement per fault.
	early := sim.DetectAll(nets, sas, nil, true)
	for i := range nets {
		if (early[i] != 0) != (got[i] != 0) {
			t.Fatalf("fault %d: early mask %b vs full %b", i, early[i], got[i])
		}
		if early[i]&^got[i] != 0 {
			t.Fatalf("fault %d: early mask %b not a subset of %b", i, early[i], got[i])
		}
	}
}

func randomCircuit(rng *rand.Rand, n int) *logic.Circuit {
	b := logic.NewBuilder("rand")
	nin := 3 + rng.Intn(4)
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
	// Mark a couple of outputs for observability.
	b.MarkOutput(b.NumNodes() - 1)
	if b.NumNodes() >= 2 {
		b.MarkOutput(b.NumNodes() - 2)
	}
	return b.MustBuild()
}

// TestOnePatternQueryWithoutActivation loads one pattern, as the ATPG
// engine's commit frontier does, so lanes 1–63 hold the all-zero pattern.
// A fault that pattern does not activate, but the all-zero pattern does,
// must be answered without a wave: no node may be stamped diverged.
func TestOnePatternQueryWithoutActivation(t *testing.T) {
	b := logic.NewBuilder("and2")
	x, y := b.Input("x"), b.Input("y")
	b.MarkOutput(b.Gate(logic.And, "z", x, y))
	c := b.MustBuild()
	words, err := PackPatterns(c, [][]bool{{true, true}})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewSimulator(c, words, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := sim.DetectsAny(x, true); got != 0 { // x is 1 in the pattern
		t.Fatalf("x/1 detected by x=1, y=1: %b", got)
	}
	for id, stamp := range sim.divergedAt {
		if stamp != 0 && stamp == sim.epoch {
			t.Fatalf("node %d stamped diverged by a query the pattern does not activate", id)
		}
	}
	if got := sim.DetectsAny(x, false); got != 1 {
		t.Fatalf("x/0 not detected by x=1, y=1: %b", got)
	}
}

// TestResetMatchesSimulate runs sequences of Reset on random netlists
// that change no input word, one, some and all of them, with nPatterns
// moving between 64 and 1. After every Reset the good values (outputs
// included) must equal a full Simulate64 of the new words, and Detects
// must equal ReferenceDetects for every fault.
func TestResetMatchesSimulate(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := randomCircuit(rng, 20+rng.Intn(40))
		if seed%2 == 0 {
			c = gen.Random(gen.RandomParams{Inputs: 10, Gates: 120, Seed: seed})
		}
		words := make([]uint64, len(c.Inputs))
		for i := range words {
			words[i] = rng.Uint64()
		}
		sim, err := NewSimulator(c, words, 64)
		if err != nil {
			t.Fatal(err)
		}
		checkReset(t, c, sim, words, 64)
		for step, nPat := range []int{64, 1, 1, 17, 64, 1, 64, 1} {
			// No word, one word, some words, all words, in turn.
			switch step % 4 {
			case 1:
				words[rng.Intn(len(words))] ^= 1 << uint(rng.Intn(64))
			case 2:
				for i := range words {
					if rng.Intn(2) == 0 {
						words[i] = rng.Uint64() & (1<<uint(nPat) - 1)
					}
				}
			case 3:
				for i := range words {
					words[i] = rng.Uint64()
				}
			}
			if err := sim.Reset(words, nPat); err != nil {
				t.Fatal(err)
			}
			checkReset(t, c, sim, words, nPat)
		}
	}
}

// FuzzResetMatchesSimulate is TestResetMatchesSimulate over a netlist and
// a sequence of input-word changes decoded from the fuzzer's bytes.
func FuzzResetMatchesSimulate(f *testing.F) {
	f.Add([]byte{3, 0, 2, 4, 1, 3, 5, 4, 6, 9, 6, 1, 0, 7, 2, 8}, []byte{0, 1, 2, 3, 1, 5, 0, 0, 0, 7, 9, 9, 9})
	f.Add([]byte{7, 2, 0, 2, 3, 4, 6, 5, 8, 10, 8, 12, 14, 0, 16, 18, 1, 20, 2}, []byte{64, 2, 6, 10, 14, 1, 1, 1, 1, 1, 1, 1, 1})
	f.Fuzz(func(t *testing.T, netlist, steps []byte) {
		c := decodeCircuit(netlist)
		if c == nil {
			return
		}
		words := make([]uint64, len(c.Inputs))
		sim, err := NewSimulator(c, words, 64)
		if err != nil {
			t.Fatal(err)
		}
		// Each step: a byte picking nPatterns (1–64), then one byte per
		// input word: keep it, replace it, flip one bit or clear it.
		for step := uint64(1); len(steps) > 0; step++ {
			nPat := 1 + int(steps[0])%64
			steps = steps[1:]
			for i := range words {
				if len(steps) == 0 {
					break
				}
				op := steps[0]
				steps = steps[1:]
				switch op % 4 {
				case 1:
					words[i] = mix(step<<8 | uint64(i)<<16 | uint64(op))
				case 2:
					words[i] ^= 1 << (op >> 2)
				case 3:
					words[i] = 0
				}
			}
			if err := sim.Reset(words, nPat); err != nil {
				t.Fatal(err)
			}
			checkReset(t, c, sim, words, nPat)
		}
	})
}

// checkReset compares sim, just Reset to words, against a full
// simulation and against ReferenceDetects for every fault.
func checkReset(t *testing.T, c *logic.Circuit, sim *Simulator, words []uint64, nPat int) {
	t.Helper()
	want := c.Simulate64(words)
	for id := range want {
		if sim.goodVals[id] != want[id] {
			t.Fatalf("node %d (output %v): good value %x after Reset, Simulate64 %x", id, sim.isOut[id], sim.goodVals[id], want[id])
		}
	}
	for net := 0; net < c.NumNodes(); net++ {
		for _, sa := range []bool{false, true} {
			if got, want := sim.Detects(net, sa), ReferenceDetects(c, words, nPat, net, sa); got != want {
				t.Fatalf("net %d sa%v at %d patterns: Detects %b, reference %b", net, sa, nPat, got, want)
			}
		}
	}
}

// decodeCircuit builds a netlist from fuzz bytes, or returns nil: the
// first byte picks 1–8 inputs, and every following triple one node — its
// kind, then two fanins among the nodes before it, each byte's low bit an
// inversion. The last two nodes are the outputs.
func decodeCircuit(data []byte) *logic.Circuit {
	if len(data) == 0 {
		return nil
	}
	b := logic.NewBuilder("fuzz")
	for i := 0; i <= int(data[0]%8); i++ {
		b.Input(fmt.Sprint("i", i))
	}
	kinds := []logic.GateType{logic.And, logic.Or, logic.Nand, logic.Nor, logic.Xor, logic.Xnor, logic.Not, logic.Buf, logic.Const0, logic.Const1}
	for k, g := 0, data[1:]; len(g) >= 3 && k < 200; k, g = k+1, g[3:] {
		name := fmt.Sprint("g", k)
		switch kind := kinds[int(g[0])%len(kinds)]; kind {
		case logic.Const0, logic.Const1:
			b.Const(name, kind == logic.Const1)
		default:
			fanin := []int{int(g[1]>>1) % b.NumNodes(), int(g[2]>>1) % b.NumNodes()}
			neg := []bool{g[1]&1 == 1, g[2]&1 == 1}
			if kind == logic.Not || kind == logic.Buf {
				fanin, neg = fanin[:1], neg[:1]
			}
			b.GateN(kind, name, fanin, neg)
		}
	}
	b.MarkOutput(b.NumNodes() - 1)
	if b.NumNodes() > 1 {
		b.MarkOutput(b.NumNodes() - 2)
	}
	c, err := b.Build()
	if err != nil {
		return nil
	}
	return c
}

// mix is the splitmix64 finalizer: a well-spread word from a small seed.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}
