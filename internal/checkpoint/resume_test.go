package checkpoint

import (
	"strings"
	"testing"

	"atpgeasy/internal/atpg"
	"atpgeasy/internal/gen"
)

// TestResumeState: journal-to-engine conversion must validate indices,
// statuses, vector widths and characters, and which statuses carry a
// vector — journal content is external input even though the header
// hash makes honest mismatches unlikely.
func TestResumeState(t *testing.T) {
	c := gen.CarryLookaheadAdder(2)
	faults := atpg.Collapse(c, atpg.AllFaults(c))
	vec := strings.Repeat("1", len(c.Inputs))

	good := &State{
		Faults: map[int]FaultVerdict{
			1: {Status: "detected", Vector: vec},
			3: {Status: "untestable"},
			4: {Status: "error", Err: "panic: boom"},
		},
	}
	rs, err := Replay(good, c, faults)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Faults) != 3 {
		t.Fatalf("faults = %+v", rs.Faults)
	}
	if r := rs.Faults[1]; r.Status != atpg.Detected || len(r.Vector) != len(c.Inputs) || r.Fault != faults[1] {
		t.Errorf("fault 1 = %+v", r)
	}
	if r := rs.Faults[4]; r.Status != atpg.Errored || r.Err != "panic: boom" {
		t.Errorf("fault 4 = %+v", r)
	}

	bad := []*State{
		{Faults: map[int]FaultVerdict{len(faults): {Status: "detected"}}},
		{Faults: map[int]FaultVerdict{-1: {Status: "untestable"}}},
		{Faults: map[int]FaultVerdict{0: {Status: "mystery"}}},
		{Faults: map[int]FaultVerdict{0: {Status: "detected", Vector: "10"}}},
		{Faults: map[int]FaultVerdict{0: {Status: "detected", Vector: "x" + vec[1:]}}},
		{Faults: map[int]FaultVerdict{0: {Status: "detected"}}},
		{Faults: map[int]FaultVerdict{0: {Status: "untestable", Vector: vec}}},
	}
	for i, st := range bad {
		if _, err := Replay(st, c, faults); err == nil {
			t.Errorf("bad state %d accepted", i)
		}
	}
}
