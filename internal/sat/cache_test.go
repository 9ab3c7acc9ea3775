package sat

import (
	"math/rand"
	"testing"

	"atpgeasy/internal/cnf"
	"atpgeasy/internal/gen"
)

// TestHashedCacheAgreesOnCircuits is the satellite property test: on
// randomized generated circuits the hashed-digest cache, the exact-key
// cache, Simple and DPLL must all return the same SAT/UNSAT verdict, and
// every SAT model must verify against the formula.
func TestHashedCacheAgreesOnCircuits(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 25; trial++ {
		c := gen.Random(gen.RandomParams{
			Inputs:   3 + rng.Intn(5),
			Gates:    8 + rng.Intn(25),
			Locality: 1.0 + rng.Float64()*2,
			Seed:     int64(1000 + trial),
		})
		// Force a random output to a random value so a healthy share of
		// the instances are UNSAT, not just circuit-consistency SAT.
		out := c.Outputs[rng.Intn(len(c.Outputs))]
		f, err := cnf.FromCircuit(c, map[int]bool{out: rng.Intn(2) == 1})
		if err != nil {
			t.Fatalf("trial %d: encode: %v", trial, err)
		}

		want := Unknown
		for name, s := range solvers() {
			sol := s.Solve(f)
			if sol.Status == Unknown {
				t.Fatalf("trial %d: %s returned Unknown", trial, name)
			}
			if want == Unknown {
				want = sol.Status
			} else if sol.Status != want {
				t.Fatalf("trial %d: %s = %v, other solvers = %v", trial, name, sol.Status, want)
			}
			if sol.Status == Sat {
				if err := Verify(f, sol.Model); err != nil {
					t.Fatalf("trial %d: %s model invalid: %v", trial, name, err)
				}
			}
		}
	}
}

// TestWeakHashCollisionFallback injects a degenerate hash (every residual
// digests to the same value) and checks that exact-key verification keeps
// the solver correct while actually exercising the collision path.
func TestWeakHashCollisionFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var collisions, hits int64
	for trial := 0; trial < 40; trial++ {
		f := randomFormula(rng, 3+rng.Intn(6), 4+rng.Intn(12))
		want := bruteForce(f)
		s := &Caching{VerifyKeys: true, weakHash: true}
		sol := s.Solve(f)
		if sol.Status != want {
			t.Fatalf("trial %d: weak-hash solver = %v, brute force = %v", trial, sol.Status, want)
		}
		if sol.Status == Sat {
			if err := Verify(f, sol.Model); err != nil {
				t.Fatalf("trial %d: model invalid: %v", trial, err)
			}
		}
		collisions += sol.Stats.CacheCollisions
		hits += sol.Stats.CacheHits
	}
	// With every digest identical, distinct residuals landing on the same
	// slot must be detected by the byte-key comparison.
	if collisions == 0 {
		t.Fatalf("weak hash produced no detected collisions (hits = %d); fallback path untested", hits)
	}

	// Sanity check in the other direction: without VerifyKeys the same
	// degenerate hash must misbehave on at least one instance, proving the
	// collision scenario is real rather than vacuous.
	rng = rand.New(rand.NewSource(7))
	wrong := false
	for trial := 0; trial < 40 && !wrong; trial++ {
		f := randomFormula(rng, 3+rng.Intn(6), 4+rng.Intn(12))
		want := bruteForce(f)
		sol := (&Caching{weakHash: true}).Solve(f)
		if sol.Status != want {
			wrong = true
		}
	}
	if !wrong {
		t.Log("note: unverified weak hash happened to stay correct on this corpus")
	}
}

// TestCacheLimitBoundsMemory solves a pigeonhole instance under a tight
// byte budget and checks the accounting: the footprint must respect the
// limit, eviction must have occurred, and the verdict must be unchanged.
func TestCacheLimitBoundsMemory(t *testing.T) {
	f := pigeonhole(8, 7)
	const limit = 1 << 16

	unlimited := (&Caching{}).Solve(f)
	if unlimited.Status != Unsat {
		t.Fatalf("unlimited: pigeonhole(8,7) = %v, want Unsat", unlimited.Status)
	}
	limited := (&Caching{CacheLimit: limit}).Solve(f)
	if limited.Status != Unsat {
		t.Fatalf("limited: pigeonhole(8,7) = %v, want Unsat", limited.Status)
	}
	if limited.Stats.CacheBytes > limit {
		t.Errorf("CacheBytes = %d, exceeds limit %d", limited.Stats.CacheBytes, limit)
	}
	if limited.Stats.CacheEvictions == 0 {
		t.Errorf("no evictions under a %d-byte limit (entries = %d)", int64(limit), limited.Stats.CacheEntries)
	}
	// A smaller cache can only lose pruning opportunities, never gain them.
	if limited.Stats.Nodes < unlimited.Stats.Nodes {
		t.Errorf("limited cache visited fewer nodes (%d) than unlimited (%d)",
			limited.Stats.Nodes, unlimited.Stats.Nodes)
	}

	// Same accounting discipline in exact-key mode, where variable-length
	// byte keys join the fixed slot cost.
	exact := (&Caching{VerifyKeys: true, CacheLimit: limit}).Solve(f)
	if exact.Status != Unsat {
		t.Fatalf("exact limited: pigeonhole(8,7) = %v, want Unsat", exact.Status)
	}
	if exact.Stats.CacheBytes > limit {
		t.Errorf("exact-key CacheBytes = %d, exceeds limit %d", exact.Stats.CacheBytes, limit)
	}
}
