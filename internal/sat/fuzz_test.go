package sat

import (
	"math/rand"
	"testing"

	"atpgeasy/internal/cnf"
)

// fuzzReader hands out the bytes of a fuzz input, then zeros.
type fuzzReader []byte

func (r *fuzzReader) next() int {
	if len(*r) == 0 {
		return 0
	}
	b := (*r)[0]
	*r = (*r)[1:]
	return int(b)
}

// FuzzIncrementalMatchesBruteForce decodes each input into a formula of
// at most 12 variables, about half of its clauses binary, split into a
// base and a part (SetBase, then Load), with a priority list and a series
// of assumption sets solved on the one instance. Every answer must match
// exhaustive enumeration: the status; on Sat, a model that satisfies the
// whole formula and the assumptions; and the lex-least projection, over
// all models consistent with the assumptions, onto the priority list.
// The instance is loaded twice, so the second round runs on reused
// buffers and a base restored from its own copy.
func FuzzIncrementalMatchesBruteForce(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		seed := make([]byte, 40+rng.Intn(80))
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := fuzzReader(data)
		nv := 1 + r.next()%12
		whole := cnf.NewFormula(nv)
		for n := r.next() % 48; n > 0; n-- {
			b := r.next()
			var k int
			switch b % 16 {
			case 0:
				k = 0
			case 1, 2:
				k = 1
			case 3, 4, 5, 6, 7, 8, 9, 10:
				k = 2
			case 11, 12, 13:
				k = 3
			default:
				k = 4 + b/16%3
			}
			c := make(cnf.Clause, k)
			for j := range c {
				l := r.next()
				c[j] = cnf.NewLit(l/2%nv, l%2 == 1)
			}
			whole.Clauses = append(whole.Clauses, c)
		}
		cut := r.next() % (len(whole.Clauses) + 1)
		base := &cnf.Formula{NumVars: nv, Clauses: whole.Clauses[:cut]}
		part := &cnf.Formula{NumVars: nv, Clauses: whole.Clauses[cut:]}

		s := NewIncremental()
		s.SetBase(base)
		for round := 0; round < 2; round++ {
			var prio []int
			used := make([]bool, nv)
			for n := r.next() % (nv + 1); n > 0; n-- {
				if v := r.next() % nv; !used[v] {
					used[v] = true
					prio = append(prio, v)
				}
			}
			s.Load(part, prio)
			for calls := 1 + r.next()%4; calls > 0; calls-- {
				var assumps []cnf.Lit
				for n := r.next() % 4; n > 0; n-- {
					l := r.next()
					assumps = append(assumps, cnf.NewLit(l/2%nv, l%2 == 1))
				}
				checkAgainstEnumeration(t, whole, prio, assumps, s.SolveAssuming(assumps, Limits{}))
			}
		}
	})
}

// checkAgainstEnumeration fails t unless sol is f's answer under the
// assumptions: Sat exactly when some assignment satisfies both, and then a
// satisfying model whose projection onto prio is the lex-least one.
func checkAgainstEnumeration(t *testing.T, f *cnf.Formula, prio []int, assumps []cnf.Lit, sol Solution) {
	t.Helper()
	found := false
	best := make([]bool, len(prio)) // the lex-least projection onto prio of a model
	assign := make([]bool, f.NumVars)
	proj := make([]bool, len(prio))
	for pat := 0; pat < 1<<f.NumVars; pat++ {
		for v := range assign {
			assign[v] = pat>>v&1 == 1
		}
		if !f.Eval(assign) || !satisfiesAll(assumps, assign) {
			continue
		}
		for i, v := range prio {
			proj[i] = assign[v]
		}
		if !found || lexLess(proj, best) {
			copy(best, proj)
		}
		found = true
	}
	switch {
	case !found && sol.Status != Unsat:
		t.Fatalf("answer %v under %v, but no assignment satisfies the formula and the assumptions\n%s", sol.Status, assumps, f)
	case !found:
		return
	case sol.Status != Sat:
		t.Fatalf("answer %v under %v, but the formula has a model\n%s", sol.Status, assumps, f)
	}
	if err := Verify(f, sol.Model); err != nil || !satisfiesAll(assumps, sol.Model) {
		t.Fatalf("model %v under %v: %v (or it breaks an assumption)\n%s", sol.Model, assumps, err, f)
	}
	for i, v := range prio {
		if sol.Model[v] != best[i] {
			t.Fatalf("model %v is not lex-least on priority %v at slot %d under %v\n%s", sol.Model, prio, i, assumps, f)
		}
	}
}

// satisfiesAll reports whether the assignment makes every literal true.
func satisfiesAll(lits []cnf.Lit, assign []bool) bool {
	for _, l := range lits {
		if !l.Sat(assign[l.Var()]) {
			return false
		}
	}
	return true
}
