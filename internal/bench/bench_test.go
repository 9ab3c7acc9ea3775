package bench

import (
	"math/rand"
	"strings"
	"testing"

	"atpgeasy/internal/gen"
	"atpgeasy/internal/logic"
)

const sample = `
# simple netlist
INPUT(a)
INPUT(b)
OUTPUT(o)
# out-of-order declaration is legal
o = NAND(x, y)
x = AND(a, b)
y = OR(a, b)
`

func TestReadSample(t *testing.T) {
	c, err := Read(strings.NewReader(sample), "sample")
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Inputs) != 2 || len(c.Outputs) != 1 {
		t.Fatalf("interface: %d/%d", len(c.Inputs), len(c.Outputs))
	}
	// o = NAND(AND(a,b), OR(a,b)) = ¬(ab ∧ (a∨b)) = ¬(ab).
	for pat := 0; pat < 4; pat++ {
		a, b := pat&1 == 1, pat&2 == 2
		got := c.SimulateOutputs([]bool{a, b})[0]
		if got != !(a && b) {
			t.Errorf("a=%v b=%v: got %v", a, b, got)
		}
	}
}

// TestReadMixedCase: the INPUT and OUTPUT keywords and the gate names
// are read in any letter case, with or without a space before the
// parenthesis, while net names keep their case; a keyword without its
// parenthesis is not a declaration.
func TestReadMixedCase(t *testing.T) {
	const src = "Input(a)\ninPut (B)\noutput(Out)\nOutPut (n)\n" +
		"n = nOt(Out)\nOut = nAnD(x, B)\nx = Or(a, B)\n"
	c, err := Read(strings.NewReader(src), "mixed")
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Inputs) != 2 || len(c.Outputs) != 2 {
		t.Fatalf("interface: %d inputs, %d outputs; want 2 and 2", len(c.Inputs), len(c.Outputs))
	}
	for i, want := range []string{"a", "B"} {
		if got := c.Nodes[c.Inputs[i]].Name; got != want {
			t.Errorf("input %d is %q, want %q", i, got, want)
		}
	}
	// Out = NAND(OR(a, B), B) = ¬B, and n = ¬Out = B.
	for pat := 0; pat < 4; pat++ {
		a, b := pat&1 == 1, pat&2 == 2
		got := c.SimulateOutputs([]bool{a, b})
		if got[0] != !b || got[1] != b {
			t.Errorf("a=%v B=%v: outputs %v, want [%v %v]", a, b, got, !b, b)
		}
	}
	for _, src := range []string{"INPUTS(a)\n", "input a\n", "OUTPUTx(a)\n"} {
		if _, err := Read(strings.NewReader(src), "bad"); err == nil {
			t.Errorf("%q parsed as a declaration", src)
		}
	}
}

func TestReadErrors(t *testing.T) {
	cases := map[string]string{
		"dff":             "INPUT(a)\nOUTPUT(q)\nq = DFF(a)\n",
		"cycle":           "INPUT(a)\nOUTPUT(x)\nx = AND(a, y)\ny = AND(a, x)\n",
		"undriven output": "INPUT(a)\nOUTPUT(z)\n",
		"double driven":   "INPUT(a)\nOUTPUT(x)\nx = NOT(a)\nx = BUFF(a)\n",
		"dup input":       "INPUT(a)\nINPUT(a)\nOUTPUT(a)\n",
		"no assignment":   "INPUT(a)\nfoo bar\n",
		"bad parens":      "INPUT(a)\nOUTPUT(x)\nx = NOT a\n",
		"empty decl":      "INPUT()\n",
	}
	for name, src := range cases {
		if _, err := Read(strings.NewReader(src), name); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	circuits := []*logic.Circuit{
		gen.RippleAdder(4),
		gen.Comparator(4),
		gen.ParityTree(8),
		logic.Figure4a(), // has inversion bubbles → writer adds NOTs
	}
	for _, orig := range circuits {
		var sb strings.Builder
		if err := Write(&sb, orig); err != nil {
			t.Fatalf("%s: Write: %v", orig.Name, err)
		}
		back, err := Read(strings.NewReader(sb.String()), orig.Name)
		if err != nil {
			t.Fatalf("%s: Read: %v\n%s", orig.Name, err, sb.String())
		}
		if !SameInterface(orig, back) {
			t.Fatalf("%s: interface changed", orig.Name)
		}
		rng := rand.New(rand.NewSource(3))
		for trial := 0; trial < 50; trial++ {
			in := make([]bool, len(orig.Inputs))
			for i := range in {
				in[i] = rng.Intn(2) == 1
			}
			// Input order is preserved by Write/Read.
			a := orig.SimulateOutputs(in)
			b := back.SimulateOutputs(in)
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("%s trial %d: output %d differs", orig.Name, trial, i)
				}
			}
		}
	}
}

func TestWriteRejectsConstants(t *testing.T) {
	b := logic.NewBuilder("k")
	x := b.Input("x")
	one := b.Const("one", true)
	b.MarkOutput(b.Gate(logic.And, "g", x, one))
	c := b.MustBuild()
	var sb strings.Builder
	if err := Write(&sb, c); err == nil {
		t.Error("constant driver accepted")
	}
}

func TestNotDeduplication(t *testing.T) {
	// Two gates consuming ¬a must share one emitted NOT.
	b := logic.NewBuilder("dedup")
	a := b.Input("a")
	x := b.Input("x")
	g1 := b.GateN(logic.And, "g1", []int{a, x}, []bool{true, false})
	g2 := b.GateN(logic.Or, "g2", []int{a, x}, []bool{true, false})
	b.MarkOutput(g1)
	b.MarkOutput(g2)
	c := b.MustBuild()
	var sb strings.Builder
	if err := Write(&sb, c); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(sb.String(), "= NOT("); got != 1 {
		t.Errorf("emitted %d NOT gates, want 1:\n%s", got, sb.String())
	}
}
