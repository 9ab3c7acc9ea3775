package sat

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"atpgeasy/internal/cnf"
	"atpgeasy/internal/logic"
)

// bruteForce decides satisfiability by enumeration (≤ 20 variables).
func bruteForce(f *cnf.Formula) Status {
	if f.NumVars > 20 {
		panic("bruteForce: too many variables")
	}
	assign := make([]bool, f.NumVars)
	for pat := 0; pat < 1<<uint(f.NumVars); pat++ {
		for i := range assign {
			assign[i] = pat>>uint(i)&1 == 1
		}
		if f.Eval(assign) {
			return Sat
		}
	}
	return Unsat
}

// randomFormula builds a random k-SAT-ish formula.
func randomFormula(rng *rand.Rand, nVars, nClauses int) *cnf.Formula {
	f := cnf.NewFormula(nVars)
	for i := 0; i < nClauses; i++ {
		k := 1 + rng.Intn(3)
		c := make([]cnf.Lit, k)
		for j := range c {
			c[j] = cnf.NewLit(rng.Intn(nVars), rng.Intn(2) == 1)
		}
		f.AddClause(c...)
	}
	return f
}

func solvers() map[string]Solver {
	return map[string]Solver{
		"simple":        &Simple{},
		"caching":       &Caching{},
		"caching-exact": &Caching{VerifyKeys: true},
		"dpll":          &DPLL{},
	}
}

// TestSolversAgreeWithBruteForce is the central correctness property: every
// solver must agree with exhaustive enumeration, and any SAT model must
// verify. It also checks the determinism contract: re-solving a formula
// after solving a different one on the same solver value must return an
// identical Solution — verdict, model and statistics.
func TestSolversAgreeWithBruteForce(t *testing.T) {
	for name, s := range solvers() {
		s := s
		t.Run(name, func(t *testing.T) {
			check := func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				f := randomFormula(rng, 3+rng.Intn(8), 2+rng.Intn(25))
				want := bruteForce(f)
				sol := s.Solve(f)
				if sol.Status != want {
					t.Logf("seed %d: got %v want %v\n%v", seed, sol.Status, want, f)
					return false
				}
				if sol.Status == Sat {
					if err := Verify(f, sol.Model); err != nil {
						t.Logf("seed %d: bad model: %v", seed, err)
						return false
					}
				}
				s.Solve(randomFormula(rng, 3+rng.Intn(8), 2+rng.Intn(25)))
				if again := s.Solve(f); !reflect.DeepEqual(again, sol) {
					t.Logf("seed %d: re-solve differs:\nfirst  %+v\nsecond %+v", seed, sol, again)
					return false
				}
				return true
			}
			if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestEmptyAndTrivialFormulas(t *testing.T) {
	for name, s := range solvers() {
		empty := cnf.NewFormula(0)
		if got := s.Solve(empty).Status; got != Sat {
			t.Errorf("%s: empty formula = %v, want SAT", name, got)
		}
		noClauses := cnf.NewFormula(3)
		if got := s.Solve(noClauses).Status; got != Sat {
			t.Errorf("%s: clause-free formula = %v, want SAT", name, got)
		}
		contradiction := cnf.NewFormula(1)
		contradiction.AddClause(cnf.NewLit(0, false))
		contradiction.AddClause(cnf.NewLit(0, true))
		if got := s.Solve(contradiction).Status; got != Unsat {
			t.Errorf("%s: x ∧ ¬x = %v, want UNSAT", name, got)
		}
	}
}

func TestEmptyClauseIsUnsat(t *testing.T) {
	f := cnf.NewFormula(2)
	f.AddClause(cnf.NewLit(0, false))
	f.Clauses = append(f.Clauses, cnf.Clause{})
	for name, s := range solvers() {
		if got := s.Solve(f).Status; got != Unsat {
			t.Errorf("%s: formula with empty clause = %v, want UNSAT", name, got)
		}
	}
}

// TestFigure5WorkedExample runs Algorithm 1 on Formula 4.1 under the
// paper's ordering A (b,c,f,a,h,d,e,g,i) and checks that (a) the instance
// is SAT — a test for the circuit-SAT problem exists — and (b) the caching
// strategy actually prunes: the example in Section 4.1 shows the residual
// after b=0,c=0,f=0,a=0,h=0 recurring under a=1.
func TestFigure5WorkedExample(t *testing.T) {
	c := logic.Figure4a()
	f, err := cnf.FromCircuit(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	order := logic.Figure4aOrderingA(c)
	sol := (&Caching{Order: order}).Solve(f)
	if sol.Status != Sat {
		t.Fatalf("CIRCUIT-SAT(fig4a) = %v, want SAT", sol.Status)
	}
	if err := Verify(f, sol.Model); err != nil {
		t.Fatal(err)
	}
	// The model must drive output i to 1; check against simulation.
	in := make([]bool, len(c.Inputs))
	for k, id := range c.Inputs {
		in[k] = sol.Model[id]
	}
	if out := c.SimulateOutputs(in); !out[0] {
		t.Error("model does not set the circuit output to 1")
	}
}

func TestCachingPrunesRepeatedSubformulas(t *testing.T) {
	// An UNSAT formula built to repeat sub-formulas: two independent
	// blocks; the second block is UNSAT. Assignments to the first block
	// all produce the same residual, so the cache must hit.
	f := cnf.NewFormula(6)
	f.AddClause(cnf.NewLit(0, false), cnf.NewLit(1, false))
	f.AddClause(cnf.NewLit(2, false), cnf.NewLit(3, false))
	// UNSAT core on vars 4,5.
	f.AddClause(cnf.NewLit(4, false), cnf.NewLit(5, false))
	f.AddClause(cnf.NewLit(4, false), cnf.NewLit(5, true))
	f.AddClause(cnf.NewLit(4, true), cnf.NewLit(5, false))
	f.AddClause(cnf.NewLit(4, true), cnf.NewLit(5, true))

	cSol := (&Caching{}).Solve(f)
	sSol := (&Simple{}).Solve(f)
	if cSol.Status != Unsat || sSol.Status != Unsat {
		t.Fatalf("status: caching=%v simple=%v, want UNSAT", cSol.Status, sSol.Status)
	}
	if cSol.Stats.CacheHits == 0 {
		t.Error("caching solver made no cache hits on a formula with repeated residuals")
	}
	if cSol.Stats.Nodes >= sSol.Stats.Nodes {
		t.Errorf("caching visited %d nodes, simple %d; cache should prune", cSol.Stats.Nodes, sSol.Stats.Nodes)
	}
	if cSol.Stats.CacheEntries == 0 {
		t.Error("no cache entries recorded")
	}
}

func TestBadOrderingRejected(t *testing.T) {
	f := cnf.NewFormula(3)
	f.AddClause(cnf.NewLit(0, false))
	for _, ord := range [][]int{{0, 1}, {0, 1, 1}, {0, 1, 5}} {
		if got := (&Caching{Order: ord}).Solve(f).Status; got != Unknown {
			t.Errorf("ordering %v: status %v, want Unknown", ord, got)
		}
		if got := (&Simple{Order: ord}).Solve(f).Status; got != Unknown {
			t.Errorf("ordering %v: status %v, want Unknown", ord, got)
		}
	}
}

func TestNodeLimitAborts(t *testing.T) {
	// Pigeonhole-ish hard instance: 4 pigeons, 3 holes.
	f := pigeonhole(4, 3)
	sol := (&Simple{MaxNodes: 5}).Solve(f)
	if sol.Status != Unknown {
		t.Errorf("status = %v, want Unknown under node limit", sol.Status)
	}
	sol = (&Caching{MaxNodes: 5}).Solve(f)
	if sol.Status != Unknown {
		t.Errorf("caching status = %v, want Unknown under node limit", sol.Status)
	}
}

func TestConflictLimitAborts(t *testing.T) {
	f := pigeonhole(7, 6)
	sol := (&DPLL{MaxConflicts: 3}).Solve(f)
	if sol.Status != Unknown {
		t.Errorf("status = %v, want Unknown under conflict limit", sol.Status)
	}
}

// TestDeadlineAborts: an already-expired deadline must abort
// SolveAssuming with Unknown before any search, on an unsatisfiable and
// a satisfiable instance, and leave the instance valid: the next call
// without limits decides it.
func TestDeadlineAborts(t *testing.T) {
	past := Limits{Deadline: time.Now().Add(-time.Second)}
	for _, tc := range []struct {
		f    *cnf.Formula
		want Status
	}{{pigeonhole(5, 4), Unsat}, {pigeonhole(3, 3), Sat}} {
		s := NewIncremental()
		s.Load(tc.f, nil)
		sol := s.SolveAssuming(nil, past)
		if sol.Status != Unknown || sol.Stats.Decisions != 0 {
			t.Errorf("expired deadline = %v after %d decisions, want Unknown before any", sol.Status, sol.Stats.Decisions)
		}
		if got := s.SolveAssuming(nil, Limits{}).Status; got != tc.want {
			t.Errorf("unlimited retry = %v, want %v", got, tc.want)
		}
	}
}

// TestCancelAborts: a closed Cancel channel must abort the search.
func TestCancelAborts(t *testing.T) {
	cancelled := make(chan struct{})
	close(cancelled)
	s := NewIncremental()
	s.Load(pigeonhole(8, 7), nil)
	if got := s.SolveAssuming(nil, Limits{Cancel: cancelled}).Status; got != Unknown {
		t.Errorf("closed cancel channel = %v, want Unknown", got)
	}
}

// TestIncrementalCancelMidSearch: a cancel channel closed while the
// search is deep in a hard instance must abort it promptly with Unknown
// — the cancel-channel analogue of the deadline tests (the engine relies
// on this path to drain parallel runs). Resolution proofs of PHP(12,11)
// are exponential, so the 25 ms cancel always lands mid-search.
func TestIncrementalCancelMidSearch(t *testing.T) {
	s := NewIncremental()
	s.Load(pigeonhole(12, 11), nil)
	cancel := make(chan struct{})
	go func() {
		time.Sleep(25 * time.Millisecond)
		close(cancel)
	}()
	start := time.Now()
	sol := s.SolveAssuming(nil, Limits{Cancel: cancel})
	elapsed := time.Since(start)
	if sol.Status != Unknown {
		t.Fatalf("status = %v, want Unknown (cancelled mid-search)", sol.Status)
	}
	if sol.Stats.Conflicts == 0 {
		t.Error("solver aborted before searching at all — cancel did not land mid-search")
	}
	if elapsed > 5*time.Second {
		t.Errorf("abort took %v after a 25ms cancel", elapsed)
	}
}

// TestLimitsHonoredPromptly: a short deadline must abort a search that
// would otherwise run far past it (the check cadence is limitCheck
// steps).
func TestLimitsHonoredPromptly(t *testing.T) {
	s := NewIncremental()
	s.Load(pigeonhole(12, 11), nil) // far beyond the deadline's reach
	start := time.Now()
	sol := s.SolveAssuming(nil, Limits{Deadline: start.Add(50 * time.Millisecond)})
	elapsed := time.Since(start)
	if sol.Status != Unknown {
		t.Fatalf("status = %v, want Unknown", sol.Status)
	}
	if elapsed > 5*time.Second {
		t.Errorf("abort took %v, deadline was 50ms", elapsed)
	}
}

// TestDecisionsCountBranchPoints: after the double-count fix, Decisions
// counts branched variables, not visited branches. On a fully explored
// UNSAT tree every decision contributes exactly two nodes.
func TestDecisionsCountBranchPoints(t *testing.T) {
	f := pigeonhole(3, 2)
	for name, s := range map[string]Solver{"simple": &Simple{}, "caching": &Caching{}} {
		sol := s.Solve(f)
		if sol.Status != Unsat {
			t.Fatalf("%s: PHP(3,2) = %v, want UNSAT", name, sol.Status)
		}
		st := sol.Stats
		if st.Nodes != 2*st.Decisions {
			t.Errorf("%s: Nodes = %d, Decisions = %d; want Nodes == 2×Decisions on a fully explored UNSAT tree",
				name, st.Nodes, st.Decisions)
		}
	}
	// On a SAT instance the counters diverge but stay in the branch-point
	// envelope: Decisions ≤ Nodes ≤ 2·Decisions.
	sol := (&Simple{}).Solve(pigeonhole(4, 4))
	if sol.Status != Sat {
		t.Fatalf("PHP(4,4) = %v, want SAT", sol.Status)
	}
	if d, n := sol.Stats.Decisions, sol.Stats.Nodes; d > n || n > 2*d {
		t.Errorf("Decisions = %d, Nodes = %d outside [Decisions, 2×Decisions]", d, n)
	}
}

// pigeonhole builds the classic PHP(p, h) instance: p pigeons into h
// holes. UNSAT when p > h.
func pigeonhole(p, h int) *cnf.Formula {
	f := cnf.NewFormula(p * h)
	v := func(pi, hi int) int { return pi*h + hi }
	for pi := 0; pi < p; pi++ {
		c := make([]cnf.Lit, h)
		for hi := 0; hi < h; hi++ {
			c[hi] = cnf.NewLit(v(pi, hi), false)
		}
		f.AddClause(c...)
	}
	for hi := 0; hi < h; hi++ {
		for a := 0; a < p; a++ {
			for b := a + 1; b < p; b++ {
				f.AddClause(cnf.NewLit(v(a, hi), true), cnf.NewLit(v(b, hi), true))
			}
		}
	}
	return f
}

func TestPigeonholeUnsat(t *testing.T) {
	f := pigeonhole(5, 4)
	for name, s := range solvers() {
		if got := s.Solve(f).Status; got != Unsat {
			t.Errorf("%s: PHP(5,4) = %v, want UNSAT", name, got)
		}
	}
}

func TestPigeonholeSat(t *testing.T) {
	f := pigeonhole(4, 4)
	for name, s := range solvers() {
		sol := s.Solve(f)
		if sol.Status != Sat {
			t.Errorf("%s: PHP(4,4) = %v, want SAT", name, sol.Status)
			continue
		}
		if err := Verify(f, sol.Model); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestCircuitSATInstances cross-checks the solvers on CIRCUIT-SAT
// formulas from random circuits against direct circuit enumeration.
func TestCircuitSATInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		c := randomCircuit(rng, 15)
		f, err := cnf.FromCircuit(c, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Ground truth: does some input pattern set an output to 1?
		want := Unsat
		nin := len(c.Inputs)
		for pat := 0; pat < 1<<uint(nin) && want == Unsat; pat++ {
			in := make([]bool, nin)
			for i := range in {
				in[i] = pat>>uint(i)&1 == 1
			}
			for _, o := range c.SimulateOutputs(in) {
				if o {
					want = Sat
					break
				}
			}
		}
		for name, s := range solvers() {
			sol := s.Solve(f)
			if sol.Status != want {
				t.Errorf("trial %d %s: got %v, want %v", trial, name, sol.Status, want)
			}
			if sol.Status == Sat {
				if err := Verify(f, sol.Model); err != nil {
					t.Errorf("trial %d %s: %v", trial, name, err)
				}
			}
		}
	}
}

func TestVerifyErrors(t *testing.T) {
	f := cnf.NewFormula(2)
	f.AddClause(cnf.NewLit(0, false), cnf.NewLit(1, false))
	if err := Verify(f, []bool{false}); err == nil {
		t.Error("short model accepted")
	}
	if err := Verify(f, []bool{false, false}); err == nil {
		t.Error("falsifying model accepted")
	}
	if err := Verify(f, []bool{true, false}); err != nil {
		t.Errorf("good model rejected: %v", err)
	}
}

func TestStatusString(t *testing.T) {
	if Sat.String() != "SAT" || Unsat.String() != "UNSAT" || Unknown.String() != "UNKNOWN" {
		t.Error("Status.String wrong")
	}
}

// TestDPLLLearnsClauses: the CDCL core learns on PHP(5,4).
func TestDPLLLearnsClauses(t *testing.T) {
	sol := (&DPLL{}).Solve(pigeonhole(5, 4))
	if sol.Status != Unsat {
		t.Fatalf("status %v, want UNSAT", sol.Status)
	}
	if sol.Stats.Conflicts == 0 {
		t.Error("no conflicts recorded on PHP(5,4)")
	}
	if sol.Stats.Learned == 0 {
		t.Error("no clauses learned on PHP(5,4)")
	}
}

// randomCircuit mirrors the helper in package cnf's tests.
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
		b.GateN(gt, "g"+itoa(i), fanin, neg)
	}
	b.MarkOutput(b.NumNodes() - 1)
	return b.MustBuild()
}

func itoa(i int) string {
	digits := "0123456789"
	if i == 0 {
		return "0"
	}
	var out []byte
	for i > 0 {
		out = append([]byte{digits[i%10]}, out...)
		i /= 10
	}
	return string(out)
}

// TestStatsAdd: the snapshot merge must accumulate every counter and take
// the max depth.
func TestStatsAdd(t *testing.T) {
	var s Stats
	s.Add(Stats{Nodes: 1, Decisions: 2, Propagations: 3, Conflicts: 4, Learned: 5, CacheHits: 6, CacheMisses: 7, CacheEntries: 8, CacheEvictions: 9, CacheCollisions: 10, CacheBytes: 500, MaxDepth: 8})
	s.Add(Stats{Nodes: 10, Decisions: 20, Propagations: 30, Conflicts: 40, Learned: 50, CacheHits: 60, CacheMisses: 70, CacheEntries: 80, CacheEvictions: 90, CacheCollisions: 100, CacheBytes: 400, MaxDepth: 3})
	want := Stats{Nodes: 11, Decisions: 22, Propagations: 33, Conflicts: 44, Learned: 55, CacheHits: 66, CacheMisses: 77, CacheEntries: 88, CacheEvictions: 99, CacheCollisions: 110, CacheBytes: 500, MaxDepth: 8}
	if s != want {
		t.Errorf("merged stats = %+v, want %+v", s, want)
	}
}
