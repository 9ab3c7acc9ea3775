package checkpoint

import (
	"errors"
	"fmt"
	"os"

	"atpgeasy/internal/atpg"
	"atpgeasy/internal/logic"
)

// Open opens (or, with resume, continues) the journal at path and
// converts any replayed state into the engine's resume form. The header
// binds the journal to this exact run — circuit, collapsed fault list,
// seed and the deterministic run options — so a stale or foreign
// journal is rejected instead of silently corrupting verdicts. With
// resume set and no journal on disk the run simply starts fresh (nil
// ResumeState). The atpg command, the daemon's job runner and the
// facade's OpenCheckpoint all open their journals here.
func Open(path string, resume bool, c *logic.Circuit, faults []atpg.Fault, opt atpg.RunOptions, copt Options) (*Journal, *atpg.ResumeState, error) {
	hdr := Header{
		Circuit:   c.Name,
		Faults:    len(faults),
		FaultHash: atpg.CheckpointFingerprint(c, faults, opt),
		Seed:      opt.Seed,
	}
	var prior *State
	var rs *atpg.ResumeState
	if resume {
		st, err := Load(path)
		switch {
		case errors.Is(err, os.ErrNotExist):
			// No journal yet: a fresh run, not an error.
		case err != nil:
			return nil, nil, err
		default:
			if rs, err = Replay(st, c, faults); err != nil {
				return nil, nil, err
			}
			prior = st
		}
	}
	j, err := New(path, hdr, prior, copt)
	if err != nil {
		return nil, nil, err
	}
	return j, rs, nil
}

// Replay converts a loaded journal into the engine's resume form,
// validating every index and vector against the current circuit and
// fault list (the header hash makes a mismatch unlikely, but journal
// content is still external input): a detected verdict must carry a
// vector of the circuit's width and no other verdict may carry one.
// Whether a vector detects its fault is the engine's check, made as the
// commit frontier adopts it.
func Replay(st *State, c *logic.Circuit, faults []atpg.Fault) (*atpg.ResumeState, error) {
	rs := &atpg.ResumeState{Faults: make(map[int]atpg.Result, len(st.Faults))}
	for i, fv := range st.Faults {
		if i < 0 || i >= len(faults) {
			return nil, fmt.Errorf("checkpoint: fault index %d out of range", i)
		}
		status, ok := atpg.ParseStatus(fv.Status)
		if !ok {
			return nil, fmt.Errorf("checkpoint: fault %d has unknown status %q", i, fv.Status)
		}
		switch {
		case status == atpg.Detected && fv.Vector == "":
			return nil, fmt.Errorf("checkpoint: fault %d is detected but has no vector", i)
		case status != atpg.Detected && fv.Vector != "":
			return nil, fmt.Errorf("checkpoint: fault %d is %s but has a vector", i, fv.Status)
		}
		res := atpg.Result{Fault: faults[i], Status: status, Err: fv.Err}
		if fv.Vector != "" {
			v, err := DecodeVector(fv.Vector)
			if err != nil {
				return nil, err
			}
			if len(v) != len(c.Inputs) {
				return nil, fmt.Errorf("checkpoint: fault %d vector has %d bits for %d inputs", i, len(v), len(c.Inputs))
			}
			res.Vector = v
		}
		rs.Faults[i] = res
	}
	return rs, nil
}
