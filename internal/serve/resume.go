// Package serve is the ATPG-as-a-service layer: a crash-safe,
// multi-tenant HTTP/JSON daemon over the engine. Netlists are submitted
// over HTTP, validated behind the parsers' recover barriers and the
// ioguard admission caps, queued on a bounded priority queue (full
// queue = 429 + Retry-After, never unbounded buffering), and run
// through Engine.RunFaults with every final verdict journaled via
// internal/checkpoint — so a kill -9 of the daemon loses nothing:
// queued jobs re-enqueue on restart and running jobs resume
// byte-identically from their journal. cmd/atpgd is the thin binary
// around this package.
package serve

import (
	"errors"
	"fmt"
	"os"

	"atpgeasy/internal/atpg"
	"atpgeasy/internal/checkpoint"
	"atpgeasy/internal/logic"
)

// OpenJournal opens (or, with resume, continues) the checkpoint journal
// at path and converts any replayed state into the engine's resume
// form. The header binds the journal to this exact run — circuit,
// collapsed fault list, seed and the deterministic run options — so a
// stale or foreign journal is rejected instead of silently corrupting
// verdicts. With resume set and no journal on disk the run simply
// starts fresh (nil ResumeState). Shared by cmd/atpg and the daemon's
// job runner.
func OpenJournal(path string, resume bool, c *logic.Circuit, faults []atpg.Fault, opt atpg.RunOptions, copt checkpoint.Options) (*checkpoint.Journal, *atpg.ResumeState, error) {
	hdr := checkpoint.Header{
		Circuit:   c.Name,
		Faults:    len(faults),
		FaultHash: atpg.CheckpointFingerprint(c, faults, opt),
		Seed:      opt.Seed,
	}
	var prior *checkpoint.State
	var rs *atpg.ResumeState
	if resume {
		st, err := checkpoint.Load(path)
		switch {
		case errors.Is(err, os.ErrNotExist):
			// No journal yet: a fresh run, not an error.
		case err != nil:
			return nil, nil, err
		default:
			if rs, err = ResumeStateFrom(st, c, faults); err != nil {
				return nil, nil, err
			}
			prior = st
		}
	}
	j, err := checkpoint.New(path, hdr, prior, copt)
	if err != nil {
		return nil, nil, err
	}
	return j, rs, nil
}

// ResumeStateFrom converts a loaded journal into the engine's resume
// form, validating every index and vector against the current circuit
// and fault list (the header hash makes a mismatch unlikely, but
// journal content is still external input): a detected verdict must
// carry a vector of the circuit's width and no other verdict may carry
// one. Whether a vector detects its fault is the engine's check, made
// as the commit frontier adopts it.
func ResumeStateFrom(st *checkpoint.State, c *logic.Circuit, faults []atpg.Fault) (*atpg.ResumeState, error) {
	decode := func(s string, what string) ([]bool, error) {
		v, err := checkpoint.DecodeVector(s)
		if err != nil {
			return nil, err
		}
		if len(v) != len(c.Inputs) {
			return nil, fmt.Errorf("checkpoint: %s vector has %d bits for %d inputs", what, len(v), len(c.Inputs))
		}
		return v, nil
	}
	rs := &atpg.ResumeState{Faults: make(map[int]atpg.Result, len(st.Faults))}
	if st.RPT != nil {
		rpt := &atpg.ResumeRPT{
			Detected: append([]int(nil), st.RPT.Detected...),
			Vectors:  make([][]bool, len(st.RPT.Vectors)),
			Batches:  st.RPT.Batches,
		}
		for _, i := range rpt.Detected {
			if i < 0 || i >= len(faults) {
				return nil, fmt.Errorf("checkpoint: rpt-detected fault index %d out of range", i)
			}
		}
		for i, s := range st.RPT.Vectors {
			v, err := decode(s, "rpt")
			if err != nil {
				return nil, err
			}
			rpt.Vectors[i] = v
		}
		rs.RPT = rpt
	}
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
			v, err := decode(fv.Vector, "fault")
			if err != nil {
				return nil, err
			}
			res.Vector = v
		}
		rs.Faults[i] = res
	}
	return rs, nil
}
