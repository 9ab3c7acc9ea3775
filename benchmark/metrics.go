package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"

	"atpgeasy"
)

// metricDef names one reported metric, as BENCHMARK.json lists it.
type metricDef struct {
	Name, Unit, Better string
}

// endToEnd are the metrics of an untraced run, on every workload. A job
// is one netlist through the flow in the CLI workloads and one
// submission in daemon-mix.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower"},
	{"cpu_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
	{"coverage", "frac", "higher"},
	{"vectors", "count", "lower"},
	{"testable_frac", "frac", "higher"},
	{"decided_frac", "frac", "higher"},
	{"ok_frac", "frac", "higher"},
	{"jobs_per_s", "1/s", "higher"},
	{"job_p50_s", "s", "lower"},
	{"job_p95_s", "s", "lower"},
}

// perLayer are the metrics of a traced run. A layer a workload does not
// exercise reports 0 there (NOTES.md lists which).
var perLayer = []metricDef{
	{"parse.self_s", "s", "lower"},
	{"parse.alloc_mb", "MB", "lower"},
	{"decompose.self_s", "s", "lower"},
	{"decompose.alloc_mb", "MB", "lower"},
	{"decompose.gates", "count", "lower"},
	{"collapse.self_s", "s", "lower"},
	{"collapse.faults", "count", "lower"},
	{"engine.self_s", "s", "lower"},
	{"engine.alloc_mb", "MB", "lower"},
	{"engine.gc_cycles", "count", "lower"},
	{"rpt.s", "s", "lower"},
	{"rpt.detected", "count", "higher"},
	{"build.s", "s", "lower"},
	{"solve.s", "s", "lower"},
	{"solve.calls", "count", "lower"},
	{"solve.conflicts", "count", "lower"},
	{"solve.propagations", "count", "lower"},
	{"solve.learned_reused", "count", "higher"},
	{"faultsim.s", "s", "lower"},
	{"faultsim.dropped", "count", "higher"},
	{"commit.wasted", "count", "lower"},
	{"admit.p50_s", "s", "lower"},
	{"admit.p95_s", "s", "lower"},
	{"admit.refused", "count", "lower"},
	{"queue.wait_p50_s", "s", "lower"},
	{"queue.wait_p95_s", "s", "lower"},
	{"run.p50_s", "s", "lower"},
	{"run.p95_s", "s", "lower"},
	{"notify.p50_s", "s", "lower"},
	{"fetch.p50_s", "s", "lower"},
	{"heap.live_mb", "MB", "lower"},
	{"journal.bytes", "bytes", "lower"},
	{"journal.records", "count", "lower"},
	{"trace.overhead_s", "s", "lower"},
}

// complete makes rep carry exactly the metrics in defs: missing ones
// (layers the workload does not exercise) read 0, and anything else is
// dropped.
func (r *report) complete(defs []metricDef) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		m, ok := r.Metrics[d.Name]
		if !ok {
			m = metric{Value: 0, Unit: d.Unit}
		}
		out[d.Name] = m
	}
	r.Metrics = out
}

// outcomeCounts pools the verdict counts of checked netlists or jobs.
type outcomeCounts struct {
	total, detected, untestable, aborted, vectors int
}

func (c *outcomeCounts) add(o outcomeCounts) {
	c.total += o.total
	c.detected += o.detected
	c.untestable += o.untestable
	c.aborted += o.aborted
	c.vectors += o.vectors
}

// report sets the outcome metrics: pooled coverage, the vector count, the
// share of faults not declared untestable, the share decided, and the
// share of netlists or jobs that passed.
func (c outcomeCounts) report(rep *report, ok, attempted int) {
	rep.set("coverage", ratio(c.detected, c.total-c.untestable), "frac")
	rep.set("vectors", float64(c.vectors), "count")
	rep.set("testable_frac", ratio(c.total-c.untestable, c.total), "frac")
	rep.set("decided_frac", ratio(c.total-c.aborted, c.total), "frac")
	rep.set("ok_frac", ratio(ok, attempted), "frac")
	rep.Counts = map[string]int{
		"faults": c.total, "detected": c.detected, "untestable": c.untestable,
		"aborted": c.aborted, "vectors": c.vectors,
	}
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// engineCounters are the engine's own per-layer counts, read from the
// returned Summary (CLI flow) or the final /metrics scrape (daemon).
type engineCounters struct {
	rptS, buildS, solveS, faultsimS float64
	rptDetected, dropped, wasted    int
	solveCalls                      int
	conflicts, propagations         int64
	learnedReused                   int64
}

// add accumulates one CLI-flow summary.
func (e *engineCounters) add(s *atpgeasy.Summary) {
	e.rptS += s.Phases.RPT.Seconds()
	e.buildS += s.Phases.Build.Seconds()
	e.solveS += s.Phases.Solve.Seconds()
	e.faultsimS += s.Phases.FaultSim.Seconds()
	e.rptDetected += s.DetectedByRPT
	e.dropped += s.DroppedByFaultSim
	e.wasted += s.WastedSolves
	e.solveCalls += len(s.Results)
	e.conflicts += s.SolverTotals.Conflicts
	e.propagations += s.SolverTotals.Propagations
	e.learnedReused += s.SolverTotals.LearnedReused
}

func engineLayers(rep *report, e engineCounters) {
	rep.set("rpt.s", e.rptS, "s")
	rep.set("rpt.detected", float64(e.rptDetected), "count")
	rep.set("build.s", e.buildS, "s")
	rep.set("solve.s", e.solveS, "s")
	rep.set("solve.calls", float64(e.solveCalls), "count")
	rep.set("solve.conflicts", float64(e.conflicts), "count")
	rep.set("solve.propagations", float64(e.propagations), "count")
	rep.set("solve.learned_reused", float64(e.learnedReused), "count")
	rep.set("faultsim.s", e.faultsimS, "s")
	rep.set("faultsim.dropped", float64(e.dropped), "count")
	rep.set("commit.wasted", float64(e.wasted), "count")
}

// spanLayers sets the span-derived metrics — self time and allocation of
// each layer call the benchmark wraps — and the work those layers did.
func spanLayers(rep *report, totals map[string]layerTotals, out passOutcome) {
	rep.set("decompose.gates", float64(out.gates), "count")
	rep.set("collapse.faults", float64(out.counts.total), "count")
	rep.set("parse.self_s", totals["parse"].selfS, "s")
	rep.set("parse.alloc_mb", totals["parse"].allocMB, "MB")
	rep.set("decompose.self_s", totals["decompose"].selfS, "s")
	rep.set("decompose.alloc_mb", totals["decompose"].allocMB, "MB")
	rep.set("collapse.self_s", totals["collapse"].selfS, "s")
	rep.set("engine.self_s", totals["engine"].selfS, "s")
	rep.set("engine.alloc_mb", totals["engine"].allocMB, "MB")
	rep.set("engine.gc_cycles", float64(totals["engine"].gc), "count")
}

// digest fingerprints a run's outputs — per netlist or job, its counts
// and every vector — so runs of one seed can be compared byte for byte.
type digest struct{ h hash.Hash }

func newDigest() digest { return digest{sha256.New()} }

func (d digest) add(name string, c outcomeCounts, vectors [][]bool) {
	d.h.Write([]byte(name + "\x00"))
	var buf [8]byte
	for _, v := range []int{c.total, c.detected, c.untestable, c.aborted, c.vectors} {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		d.h.Write(buf[:])
	}
	for _, vec := range vectors {
		for _, bit := range vec {
			if bit {
				d.h.Write([]byte{'1'})
			} else {
				d.h.Write([]byte{'0'})
			}
		}
		d.h.Write([]byte{'\n'})
	}
}

func (d digest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }
