package cnf

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"atpgeasy/internal/logic"
)

func TestLitBasics(t *testing.T) {
	p := NewLit(5, false)
	n := NewLit(5, true)
	if p.Var() != 5 || n.Var() != 5 {
		t.Errorf("Var: %d %d", p.Var(), n.Var())
	}
	if p.IsNeg() || !n.IsNeg() {
		t.Errorf("IsNeg: %v %v", p.IsNeg(), n.IsNeg())
	}
	if p.Not() != n || n.Not() != p {
		t.Error("Not is not an involution")
	}
	if !p.Sat(true) || p.Sat(false) || !n.Sat(false) || n.Sat(true) {
		t.Error("Sat wrong")
	}
	if p.String() != "x5" || n.String() != "~x5" {
		t.Errorf("String: %s %s", p, n)
	}
}

func TestClauseNormalize(t *testing.T) {
	c := Clause{NewLit(3, false), NewLit(1, true), NewLit(3, false)}
	out, taut := c.Normalize()
	if taut {
		t.Fatal("unexpected tautology")
	}
	if len(out) != 2 || out[0] != NewLit(1, true) || out[1] != NewLit(3, false) {
		t.Errorf("Normalize = %v", out)
	}
	_, taut = Clause{NewLit(2, false), NewLit(2, true)}.Normalize()
	if !taut {
		t.Error("tautology not detected")
	}
}

// TestNormalizeShortClausesMatchSort checks the compare-and-swap paths
// against a full sort: every clause of up to three literals over the six
// literals of three variables, and every four-literal clause for the
// sorting fallback, must normalise to the sorted, duplicate-free clause
// and report a tautology exactly when it holds a literal and its
// complement.
func TestNormalizeShortClausesMatchSort(t *testing.T) {
	const lits = 6
	for n := 0; n <= 4; n++ {
		total := 1
		for i := 0; i < n; i++ {
			total *= lits
		}
		for code := 0; code < total; code++ {
			c := make(Clause, n)
			for i, k := 0, code; i < n; i, k = i+1, k/lits {
				c[i] = Lit(k % lits)
			}
			want := slices.Clone(c)
			slices.Sort(want)
			want = slices.Compact(want)
			wantTaut := false
			for i := 1; i < len(want); i++ {
				wantTaut = wantTaut || want[i] == want[i-1].Not()
			}
			in := slices.Clone(c)
			got, taut := in.Normalize()
			if taut != wantTaut || (!taut && !slices.Equal(got, want)) {
				t.Fatalf("Normalize(%v) = %v, %v; want %v, %v", c, got, taut, want, wantTaut)
			}
		}
	}
}

func TestFormulaEval(t *testing.T) {
	f := NewFormula(2)
	f.AddClause(NewLit(0, false), NewLit(1, true)) // (x0 + ~x1)
	f.AddClause(NewLit(1, false))                  // (x1)
	if !f.Eval([]bool{true, true}) {
		t.Error("x0=1,x1=1 should satisfy")
	}
	if f.Eval([]bool{false, true}) {
		t.Error("x0=0,x1=1 should falsify first clause")
	}
	if f.Eval([]bool{true, false}) {
		t.Error("x1=0 should falsify unit clause")
	}
}

func TestAddClauseGrowsVars(t *testing.T) {
	f := NewFormula(0)
	f.AddClause(NewLit(9, false))
	if f.NumVars != 10 {
		t.Errorf("NumVars = %d, want 10", f.NumVars)
	}
	if f.NumClauses() != 1 || f.NumLiterals() != 1 {
		t.Errorf("counts = %d/%d", f.NumClauses(), f.NumLiterals())
	}
}

func TestClauseStateUnder(t *testing.T) {
	c := Clause{NewLit(0, false), NewLit(1, true)}
	assign := []Value{Unassigned, Unassigned}
	if c.StateUnder(assign) != Open {
		t.Error("want Open")
	}
	assign[0] = True
	if c.StateUnder(assign) != Satisfied {
		t.Error("want Satisfied")
	}
	assign[0] = False
	assign[1] = True
	if c.StateUnder(assign) != Null {
		t.Error("want Null")
	}
}

func TestResidualAndKey(t *testing.T) {
	f := NewFormula(3)
	f.AddClause(NewLit(0, false), NewLit(1, false))
	f.AddClause(NewLit(1, true), NewLit(2, false))
	assign := []Value{False, Unassigned, Unassigned}
	res := f.Residual(assign)
	if len(res) != 2 {
		t.Fatalf("residual = %v", res)
	}
	if len(res[0]) != 1 || res[0][0] != NewLit(1, false) {
		t.Errorf("first residual clause = %v", res[0])
	}
	// Keys are canonical: same clause set regardless of how it was reached.
	assign2 := []Value{False, Unassigned, Unassigned}
	key := func(a []Value) string { return string(f.AppendResidualKey(nil, a)) }
	if key(assign) != key(assign2) {
		t.Error("keys differ for identical assignments")
	}
	assign2[0] = True
	if key(assign) == key(assign2) {
		t.Error("keys equal for different residuals")
	}
}

func TestHasNullClause(t *testing.T) {
	f := NewFormula(1)
	f.AddClause(NewLit(0, false))
	if f.HasNullClause([]Value{Unassigned}) {
		t.Error("no null clause expected")
	}
	if !f.HasNullClause([]Value{False}) {
		t.Error("null clause expected")
	}
}

// TestFormula41 verifies the Figure 4(a) circuit encodes clause-for-clause
// to the paper's Formula 4.1:
//
//	(b+f̄)(c̄+f̄)(b̄+c+f) (d+g)(e+g)(d̄+ē+ḡ) (a+h̄)(f+h̄)(ā+f̄+h)
//	(h+ī)(g+ī)(h̄+ḡ+i) (i)
func TestFormula41(t *testing.T) {
	c := logic.Figure4a()
	f, err := FromCircuit(c, nil)
	if err != nil {
		t.Fatalf("FromCircuit: %v", err)
	}
	if f.NumVars != 9 {
		t.Fatalf("NumVars = %d, want 9 (one per net)", f.NumVars)
	}
	want := []string{
		"(b + ~f)", "(~c + ~f)", "(~b + c + f)",
		"(d + g)", "(e + g)", "(~d + ~e + ~g)",
		"(a + ~h)", "(f + ~h)", "(~a + ~f + h)",
		"(h + ~i)", "(g + ~i)", "(~h + ~g + i)",
		"(i)",
	}
	if len(f.Clauses) != len(want) {
		t.Fatalf("got %d clauses, want %d:\n%v", len(f.Clauses), len(want), f)
	}
	got := make(map[string]int)
	for _, cl := range f.Clauses {
		norm, _ := append(Clause(nil), cl...).Normalize()
		got[f.PrettyClause(norm)]++
	}
	for _, w := range want {
		// Normalize the wanted clause text through the same canonical form.
		wc := parsePretty(t, f, w)
		norm, _ := wc.Normalize()
		key := f.PrettyClause(norm)
		if got[key] == 0 {
			t.Errorf("missing clause %s (canonical %s)\nformula: %v", w, key, f)
		} else {
			got[key]--
		}
	}
}

// parsePretty parses "(a + ~b)" using the formula's variable names.
func parsePretty(t *testing.T, f *Formula, s string) Clause {
	t.Helper()
	s = strings.Trim(s, "()")
	name2var := map[string]int{}
	for v := 0; v < f.NumVars; v++ {
		name2var[f.VarName(v)] = v
	}
	var c Clause
	for _, part := range strings.Split(s, "+") {
		part = strings.TrimSpace(part)
		neg := strings.HasPrefix(part, "~")
		part = strings.TrimPrefix(part, "~")
		v, ok := name2var[part]
		if !ok {
			t.Fatalf("unknown variable %q in %q", part, s)
		}
		c = append(c, NewLit(v, neg))
	}
	return c
}

// TestEncodingMatchesSimulation is the core soundness property: for any
// circuit, an assignment of values to all nets satisfies the consistency
// clauses iff every net equals its gate function, and satisfies f(C) iff in
// addition some output is 1.
func TestEncodingMatchesSimulation(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := randomCircuit(rng, 12)
		full, err := FromCircuit(c, nil)
		if err != nil {
			return false
		}
		nin := len(c.Inputs)
		for pat := 0; pat < 1<<uint(nin); pat++ {
			in := make([]bool, nin)
			for i := range in {
				in[i] = pat>>uint(i)&1 == 1
			}
			vals := c.Simulate(in)
			outOne := false
			for _, o := range c.Outputs {
				outOne = outOne || vals[o]
			}
			if full.Eval(vals) != outOne {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestConsistencyRejectsCorruptedNets: flipping one internal net value must
// violate the consistency clauses.
func TestConsistencyRejectsCorruptedNets(t *testing.T) {
	c := logic.Figure4a()
	cons, err := FromCircuitConsistency(c)
	if err != nil {
		t.Fatal(err)
	}
	vals := c.Simulate([]bool{true, true, false, false, false})
	if !cons.Eval(vals) {
		t.Fatal("true simulation rejected")
	}
	for _, name := range []string{"f", "g", "h", "i"} {
		id := c.MustLookup(name)
		vals[id] = !vals[id]
		if cons.Eval(vals) {
			t.Errorf("flipping %s not detected", name)
		}
		vals[id] = !vals[id]
	}
}

func TestGateClausesXor(t *testing.T) {
	// z = XOR(x, y): check all 8 rows of (x, y, z).
	clauses, err := GateClauses(logic.Xor, 2, []Lit{NewLit(0, false), NewLit(1, false)})
	if err != nil {
		t.Fatal(err)
	}
	f := NewFormula(3)
	for _, c := range clauses {
		f.AddClause(c...)
	}
	for row := 0; row < 8; row++ {
		x, y, z := row&1 == 1, row&2 == 2, row&4 == 4
		want := (x != y) == z
		if got := f.Eval([]bool{x, y, z}); got != want {
			t.Errorf("x=%v y=%v z=%v: consistency=%v, want %v", x, y, z, got, want)
		}
	}
}

func TestGateClausesXnorWithInvertedInput(t *testing.T) {
	// z = XNOR(¬x, y) == XOR(x,y): check rows.
	clauses, err := GateClauses(logic.Xnor, 2, []Lit{NewLit(0, true), NewLit(1, false)})
	if err != nil {
		t.Fatal(err)
	}
	f := NewFormula(3)
	for _, c := range clauses {
		f.AddClause(c...)
	}
	for row := 0; row < 8; row++ {
		x, y, z := row&1 == 1, row&2 == 2, row&4 == 4
		want := (x != y) == z
		if got := f.Eval([]bool{x, y, z}); got != want {
			t.Errorf("x=%v y=%v z=%v: consistency=%v, want %v", x, y, z, got, want)
		}
	}
}

func TestGateClausesErrors(t *testing.T) {
	in := make([]Lit, maxXorFanin+1)
	for i := range in {
		in[i] = NewLit(i, false)
	}
	if _, err := GateClauses(logic.Xor, 99, in); err == nil {
		t.Error("oversized XOR should error")
	}
	if _, err := GateClauses(logic.Input, 0, nil); err == nil {
		t.Error("Input gate should error")
	}
}

func TestFromCircuitForced(t *testing.T) {
	c := logic.Figure4a()
	fID := c.MustLookup("f")
	f, err := FromCircuit(c, map[int]bool{fID: true})
	if err != nil {
		t.Fatal(err)
	}
	// f's gate clauses must be replaced by the unit (f).
	sawUnitF := false
	for _, cl := range f.Clauses {
		if len(cl) == 1 && cl[0] == NewLit(fID, false) {
			sawUnitF = true
		}
		// No clause may mention both f and its gate inputs b,c.
		if len(cl) > 1 {
			hasF := false
			for _, l := range cl {
				if l.Var() == fID {
					hasF = true
				}
			}
			if hasF {
				for _, l := range cl {
					name := f.VarName(l.Var())
					if name == "b" || name == "c" {
						t.Errorf("forced net still has gate clause %s", f.PrettyClause(cl))
					}
				}
			}
		}
	}
	if !sawUnitF {
		t.Error("missing unit clause for forced net")
	}
}

func TestCloneIndependence(t *testing.T) {
	f := NewFormula(2)
	f.AddClause(NewLit(0, false), NewLit(1, false))
	g := f.Clone()
	g.Clauses[0][0] = NewLit(1, true)
	if f.Clauses[0][0] != NewLit(0, false) {
		t.Error("clone shares clause storage")
	}
}

func TestStats(t *testing.T) {
	c := logic.Figure4a()
	f, _ := FromCircuit(c, nil)
	s := f.Stats()
	if s.Vars != 9 || s.ClauseCount != 13 {
		t.Errorf("Stats = %+v", s)
	}
	if s.UnitClauses != 1 || s.MaxClauseLen != 3 {
		t.Errorf("Stats = %+v", s)
	}
	if s.Literals != 8*2+4*3+1 {
		t.Errorf("Literals = %d", s.Literals)
	}
}

func TestDIMACSRoundTrip(t *testing.T) {
	c := logic.Figure4a()
	f, _ := FromCircuit(c, nil)
	var sb strings.Builder
	if err := f.WriteDIMACS(&sb); err != nil {
		t.Fatal(err)
	}
	g, err := ReadDIMACS(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("ReadDIMACS: %v", err)
	}
	if g.NumVars != f.NumVars || len(g.Clauses) != len(f.Clauses) {
		t.Fatalf("round trip: %d/%d vars, %d/%d clauses", g.NumVars, f.NumVars, len(g.Clauses), len(f.Clauses))
	}
	for i := range f.Clauses {
		a, _ := append(Clause(nil), f.Clauses[i]...).Normalize()
		b, _ := append(Clause(nil), g.Clauses[i]...).Normalize()
		if Clause(a).String() != Clause(b).String() {
			t.Errorf("clause %d: %v vs %v", i, a, b)
		}
	}
}

func TestDIMACSErrors(t *testing.T) {
	cases := []string{
		"1 2 0\n",                   // clause before problem line
		"p cnf x y\n",               // malformed counts
		"p cnf 2 1\np cnf 2 1\n1 0", // duplicate problem line
		"p cnf 1 1\n5 0\n",          // var out of range
		"p cnf 2 2\n1 0\n",          // clause count mismatch
		"p cnf 2 1\n1 z 0\n",        // bad token
		"",                          // empty
	}
	for _, in := range cases {
		if _, err := ReadDIMACS(strings.NewReader(in)); err == nil {
			t.Errorf("input %q: expected error", in)
		}
	}
}

func TestDIMACSCommentsAndTrailingClause(t *testing.T) {
	in := "c header\np cnf 3 2\nc mid\n1 -2 0\n-1 3"
	f, err := ReadDIMACS(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ReadDIMACS: %v", err)
	}
	if len(f.Clauses) != 2 {
		t.Fatalf("clauses = %d", len(f.Clauses))
	}
	if f.Clauses[1][1] != NewLit(2, false) {
		t.Errorf("second clause = %v", f.Clauses[1])
	}
}

func TestPrettyAndString(t *testing.T) {
	c := logic.Figure4a()
	f, _ := FromCircuit(c, nil)
	s := f.String()
	if !strings.Contains(s, "(") {
		t.Errorf("String = %q", s)
	}
	if got := f.PrettyClause(f.Clauses[len(f.Clauses)-1]); got != "(i)" {
		t.Errorf("output clause pretty = %q", got)
	}
	if f.VarName(100) != "x100" {
		t.Errorf("VarName fallback = %q", f.VarName(100))
	}
}

// randomCircuit builds a small random circuit for property tests (local
// copy to avoid an exported test helper in package logic).
func randomCircuit(rng *rand.Rand, n int) *logic.Circuit {
	b := logic.NewBuilder("rand")
	nin := 2 + rng.Intn(3)
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
	return b.MustBuild()
}
