package sat

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"math/rand"
	"testing"

	"atpgeasy/internal/cnf"
)

// searchLog digests a series of SolveAssuming answers: every call's
// status, search counters and model go into one SHA-256, and the counters
// are also summed so that a mismatch shows which of them moved.
type searchLog struct {
	h                                  hash.Hash
	calls, sat, unsat, unknown         int
	decisions, propagations, conflicts int64
	learned, learnedReused, reductions int64
	lastLearned                        int
}

func newSearchLog() *searchLog { return &searchLog{h: sha256.New()} }

// add records one call's answer and whether the call left fewer learned
// clauses than the previous one on the same Load: only reduceDB deletes
// learned clauses between Loads.
func (g *searchLog) add(s *Incremental, sol Solution) {
	st := sol.Stats
	fmt.Fprintf(g.h, "%v %d %d %d %d %d ", sol.Status, st.Decisions, st.Propagations, st.Conflicts, st.Learned, st.LearnedReused)
	for _, b := range sol.Model {
		if b {
			g.h.Write([]byte{'1'})
		} else {
			g.h.Write([]byte{'0'})
		}
	}
	g.h.Write([]byte{'\n'})
	g.calls++
	switch sol.Status {
	case Sat:
		g.sat++
	case Unsat:
		g.unsat++
	default:
		g.unknown++
	}
	g.decisions += st.Decisions
	g.propagations += st.Propagations
	g.conflicts += st.Conflicts
	g.learned += st.Learned
	g.learnedReused += st.LearnedReused
	if s.NumLearned() < g.lastLearned {
		g.reductions++
	}
	g.lastLearned = s.NumLearned()
}

// load Loads f and starts a new learned-clause count.
func (g *searchLog) load(s *Incremental, f *cnf.Formula, prio []int) {
	s.Load(f, prio)
	g.lastLearned = 0
}

func (g *searchLog) String() string {
	return fmt.Sprintf("%d calls (%d sat, %d unsat, %d unknown), %d reductions: decisions %d, propagations %d, conflicts %d, learned %d, reused %d, sha256 %x",
		g.calls, g.sat, g.unsat, g.unknown, g.reductions, g.decisions, g.propagations, g.conflicts, g.learned, g.learnedReused, g.h.Sum(nil)[:8])
}

// mixedFormula returns nClauses random clauses over nVars variables: about
// 45% binary, 35% ternary and the rest of four to six literals.
func mixedFormula(rng *rand.Rand, nVars, nClauses int) *cnf.Formula {
	f := cnf.NewFormula(nVars)
	for i := 0; i < nClauses; i++ {
		k := 2
		switch r := rng.Intn(20); {
		case r >= 16:
			k = 4 + rng.Intn(3)
		case r >= 9:
			k = 3
		}
		vars := rng.Perm(nVars)[:k]
		c := make(cnf.Clause, k)
		for j, v := range vars {
			c[j] = cnf.NewLit(v, rng.Intn(2) == 1)
		}
		f.AddClause(c...)
	}
	return f
}

// randomAssumptions returns n assumption literals over distinct variables.
func randomAssumptions(rng *rand.Rand, nVars, n int) []cnf.Lit {
	var as []cnf.Lit
	for _, v := range rng.Perm(nVars)[:n] {
		as = append(as, cnf.NewLit(v, rng.Intn(2) == 1))
	}
	return as
}

// TestSearchGolden pins the CDCL core's search. Each case solves a fixed
// series of formulas and assumption sets, and every call's status,
// decisions, propagations, conflicts, learned and reused counts and model
// must equal the values recorded at commit 1231f86. The cases cover
// binary-clause conflicts and binary reasons (pigeonhole's at-most-one
// clauses, the binary-rich mixed formulas), long clauses, assumptions
// with learned-clause reuse, a base set with SetBase under each Load,
// priority lists, a conflict limit, and a learned-clause budget small
// enough that reduceDB runs. A change to the kernel that moves any of
// these fails here, before the engine's golden vectors see it.
func TestSearchGolden(t *testing.T) {
	cases := []struct {
		name string
		run  func(*searchLog)
		want string
	}{
		{
			// PHP(7,6): six-literal at-least-one clauses and binary
			// at-most-one clauses, one-shot, UNSAT.
			name: "pigeonhole",
			run: func(g *searchLog) {
				s := NewIncremental()
				g.load(s, pigeonhole(7, 6), nil)
				g.add(s, s.SolveAssuming(nil, Limits{}))
			},
			want: "1 calls (0 sat, 1 unsat, 0 unknown), 0 reductions: decisions 780, propagations 8655, conflicts 665, learned 664, reused 0, sha256 903abb62eb4e8b83",
		},
		{
			// PHP(6,5) gated by a selector: refuted under the selector
			// twice (the second proof reuses the first's clauses), then
			// satisfiable without it; then a conflict-limited call.
			name: "gated-pigeonhole",
			run: func(g *searchLog) {
				ph := pigeonhole(6, 5)
				f := cnf.NewFormula(ph.NumVars + 1)
				sel := cnf.NewLit(ph.NumVars, false)
				for _, c := range ph.Clauses {
					f.AddClause(append(append(cnf.Clause(nil), c...), sel.Not())...)
				}
				s := NewIncremental()
				g.load(s, f, nil)
				for _, as := range [][]cnf.Lit{{sel}, {sel}, {sel.Not()}} {
					g.add(s, s.SolveAssuming(as, Limits{}))
				}
				g.load(s, f, nil)
				s.MaxConflicts = 20
				g.add(s, s.SolveAssuming([]cnf.Lit{sel}, Limits{}))
				s.MaxConflicts = 0
				g.add(s, s.SolveAssuming([]cnf.Lit{sel}, Limits{}))
			},
			want: "5 calls (1 sat, 3 unsat, 1 unknown), 0 reductions: decisions 423, propagations 3785, conflicts 316, learned 312, reused 37, sha256 221934d3e27a87a2",
		},
		{
			// Binary-rich formulas split into a base and a part
			// (SetBase, then Load), with a priority list, each solved
			// under several assumption sets on one reused instance.
			name: "mixed-base-assumptions",
			run: func(g *searchLog) {
				rng := rand.New(rand.NewSource(41))
				s := NewIncremental()
				for i := 0; i < 16; i++ {
					nv := 60 + rng.Intn(40)
					f := mixedFormula(rng, nv, 2*nv+rng.Intn(nv/2))
					cut := len(f.Clauses) / 2
					s.SetBase(&cnf.Formula{NumVars: nv, Clauses: f.Clauses[:cut]})
					prio := rng.Perm(nv)[:rng.Intn(12)]
					g.load(s, &cnf.Formula{NumVars: nv, Clauses: f.Clauses[cut:]}, prio)
					for q := 0; q < 6; q++ {
						g.add(s, s.SolveAssuming(randomAssumptions(rng, nv, rng.Intn(7)), Limits{}))
					}
				}
			},
			want: "96 calls (46 sat, 50 unsat, 0 unknown), 0 reductions: decisions 1341, propagations 4795, conflicts 50, learned 24, reused 2, sha256 1d375dd838432a19",
		},
		{
			// Random 3-CNF at the threshold with binary clauses mixed in,
			// under a 2 KB learned budget: reduceDB runs at restarts and
			// call ends.
			name: "reduce",
			run: func(g *searchLog) {
				rng := rand.New(rand.NewSource(43))
				s := NewIncremental()
				s.learnedLimit = 2 << 10
				for i := 0; i < 4; i++ {
					nv := 70
					f := random3CNF(rng, nv, 7*nv/2)
					for _, c := range mixedFormula(rng, nv, nv/3).Clauses {
						f.AddClause(c...)
					}
					g.load(s, f, rng.Perm(nv)[:8])
					for q := 0; q < 8; q++ {
						g.add(s, s.SolveAssuming(randomAssumptions(rng, nv, 1+rng.Intn(3)), Limits{}))
					}
				}
			},
			want: "32 calls (29 sat, 3 unsat, 0 unknown), 5 reductions: decisions 1370, propagations 16183, conflicts 811, learned 808, reused 258, sha256 8e6c4193561627d8",
		},
	}
	for _, tc := range cases {
		g := newSearchLog()
		tc.run(g)
		if got := g.String(); got != tc.want {
			t.Errorf("%s:\n got %s\nwant %s", tc.name, got, tc.want)
		}
	}
}
