package serve

import (
	"strings"
	"testing"
	"time"

	"atpgeasy/internal/atpg"
	"atpgeasy/internal/bench"
	"atpgeasy/internal/checkpoint"
	"atpgeasy/internal/decomp"
)

// TestJobFingerprintGolden pins CheckpointFingerprint of c17, prepared
// the way loadJobCircuit prepares a job, under the option sets that
// journals are written with: the daemon's jobRunOptions and the atpg
// CLI's defaults, with and without the random-pattern pre-phase.
// Journals written by earlier releases carry these values in their
// header; if one moves, a restarted daemon or a -resume refuses to
// resume them, so an engine change cannot silently orphan a journal.
func TestJobFingerprintGolden(t *testing.T) {
	c, err := bench.Read(strings.NewReader(c17Bench), "c17")
	if err != nil {
		t.Fatal(err)
	}
	if c, err = decomp.Decompose(c, 3); err != nil {
		t.Fatal(err)
	}
	faults := atpg.CollapseDominance(c, atpg.Collapse(c, atpg.AllFaults(c)))
	cli := atpg.DefaultRunOptions()
	cliNoRPT := cli
	cliNoRPT.RPTBatches = 0
	for _, tc := range []struct {
		name string
		opt  atpg.RunOptions
		want uint64
	}{
		{"job", jobRunOptions(nil, 0, nil, nil), 0x2b2bff2c091050fe},
		{"cli-default", cli, 0xf9d949d4acf4930b},
		{"cli-rpt-batches-0", cliNoRPT, 0xbb14a623530557fc},
	} {
		if got := atpg.CheckpointFingerprint(c, faults, tc.opt); got != tc.want {
			t.Errorf("%s: checkpoint fingerprint %#x, want %#x", tc.name, got, tc.want)
		}
	}
}

// TestJobRunOptionsDefaultFlow pins jobRunOptions to the standard flow:
// atpg.DefaultRunOptions with fault dropping off (drops are not
// journaled), plus the job's budget and sinks.
func TestJobRunOptionsDefaultFlow(t *testing.T) {
	tel := &atpg.Telemetry{}
	resume := &atpg.ResumeState{}
	journal := new(checkpoint.Journal)
	want := atpg.DefaultRunOptions()
	want.DropDetected = false
	want.PerFaultBudget = time.Second
	want.Telemetry, want.Resume, want.Journal = tel, resume, journal
	if got := jobRunOptions(tel, time.Second, resume, journal); got != want {
		t.Fatalf("jobRunOptions = %+v, want %+v", got, want)
	}
}
