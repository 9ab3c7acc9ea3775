package atpg

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"atpgeasy/internal/decomp"
	"atpgeasy/internal/gen"
	"atpgeasy/internal/logic"
)

// TestDefaultFlowGoldenVectors pins the determinism contract across
// changes: the atpg command's default flow (tech-decompose to ≤3-input
// gates, then DefaultRunOptions) must produce these exact vector sets, at
// one worker and at four. The digest is the SHA-256 of the vectors in
// Summary order, one line of 0s and 1s each. A change that moves a
// digest changes the tests the engine emits, which the lex-first
// determinism contract forbids; update a value only together with a
// deliberate change of that contract, saying why.
//
// The one-worker run also pins the search: SolverTotals' decisions,
// propagations and conflicts. Changes that only move work around it, such
// as loading a formula's good copy from the instance's base, leave them
// unchanged; a deliberate change to the search itself (learned clauses
// kept across groups, say) may move them, and then updates them, saying
// why, while the digests stay. Skipped under -race, whose instrumentation
// makes mult16's sweep slow; the values do not depend on scheduling.
func TestDefaultFlowGoldenVectors(t *testing.T) {
	if raceEnabled {
		t.Skip("mult16's sweep is slow under -race; the digests do not depend on timing")
	}
	for _, tc := range []struct {
		name       string
		c          *logic.Circuit
		rptBatches int
		vectors    int
		sha256     string
		// One worker's SolverTotals: decisions, propagations, conflicts.
		search [3]int64
	}{
		{"cmp128", gen.Comparator(128), DefaultRPTBatches, 263, "42336957d2ee82c0670e127081796b809e9612d081cf0052b4d029b723674b5e", [3]int64{56622, 470957, 0}},
		{"mult16", gen.ArrayMultiplier(16), 0, 606, "b8b7c4881d7b8fbb476577a66f561ace8097e3668108fb7e3f610ef2041bd7fe", [3]int64{18537, 2055391, 379}},
		{"rand200", gen.Random(gen.RandomParams{Inputs: 18, Gates: 200, Seed: 1}), DefaultRPTBatches, 19, "5117000a2e0000dc719962fcbf568a8e128a2ffda89c6102bf54f366f0c960e7", [3]int64{1686, 164027, 848}},
		{"dec10", gen.Decoder(10), DefaultRPTBatches, 1024, "f6ba9598aad579b80dd2a64186291f142d7f581d4a6ad199e075819cfb15f3b4", [3]int64{132, 2244, 0}},
	} {
		c, err := decomp.Decompose(tc.c, 3)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		opt := DefaultRunOptions()
		opt.RPTBatches = tc.rptBatches
		for _, workers := range []int{1, 4} {
			sum, err := (&Engine{Workers: workers}).Run(context.Background(), c, opt)
			if err != nil {
				t.Fatalf("%s at %d workers: %v", tc.name, workers, err)
			}
			if got := vectorDigest(sum.Vectors); len(sum.Vectors) != tc.vectors || got != tc.sha256 {
				t.Errorf("%s at %d workers: %d vectors, sha256 %s; want %d, %s",
					tc.name, workers, len(sum.Vectors), got, tc.vectors, tc.sha256)
			}
			st := sum.SolverTotals
			if got := [3]int64{st.Decisions, st.Propagations, st.Conflicts}; workers == 1 && got != tc.search {
				t.Errorf("%s at 1 worker: decisions, propagations, conflicts %v; want %v", tc.name, got, tc.search)
			}
		}
	}
}

// vectorDigest is the hex SHA-256 of vectors, one line of 0s and 1s
// each.
func vectorDigest(vectors [][]bool) string {
	h := sha256.New()
	var line []byte
	for _, v := range vectors {
		line = line[:0]
		for _, b := range v {
			if b {
				line = append(line, '1')
			} else {
				line = append(line, '0')
			}
		}
		h.Write(append(line, '\n'))
	}
	return hex.EncodeToString(h.Sum(nil))
}
