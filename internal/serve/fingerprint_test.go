package serve

import (
	"strings"
	"testing"

	"atpgeasy/internal/atpg"
	"atpgeasy/internal/bench"
	"atpgeasy/internal/decomp"
)

// jobFingerprintGolden is CheckpointFingerprint of c17, prepared the way
// loadJobCircuit prepares a job, under jobRunOptions. Journals written
// by earlier daemons carry this value in their header; if it moves, a
// restarted daemon refuses to resume them.
const jobFingerprintGolden uint64 = 0x2b2bff2c091050fe

// TestJobFingerprintGolden pins the job flow's checkpoint fingerprint,
// so an engine change cannot silently orphan the journals of jobs that
// were running when the daemon was upgraded.
func TestJobFingerprintGolden(t *testing.T) {
	c, err := bench.Read(strings.NewReader(c17Bench), "c17")
	if err != nil {
		t.Fatal(err)
	}
	if c, err = decomp.Decompose(c, 3); err != nil {
		t.Fatal(err)
	}
	faults := atpg.CollapseDominance(c, atpg.Collapse(c, atpg.AllFaults(c)))
	if got := atpg.CheckpointFingerprint(c, faults, jobRunOptions(nil, 0, nil, nil)); got != jobFingerprintGolden {
		t.Fatalf("job checkpoint fingerprint %#x, want %#x", got, jobFingerprintGolden)
	}
}
