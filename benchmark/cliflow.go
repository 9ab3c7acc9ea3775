package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"atpgeasy"
	"atpgeasy/internal/atpg"
	"atpgeasy/internal/logic"
)

const (
	// flowPasses is how often an untraced CLI-flow run goes through its
	// netlist list. Each netlist's time is the median of its passes, so
	// host contention during one or two passes does not move the result.
	flowPasses = 5
	// setupRepeats is how often each netlist is parsed and decomposed for
	// the CLI-flow setup_s; each netlist contributes the median.
	setupRepeats = 7
)

// flowResult is one netlist through the default flow.
type flowResult struct {
	circuit *logic.Circuit // the decomposed circuit the engine ran on
	sum     *atpgeasy.Summary
	err     error
	latency time.Duration // bytes in to summary out
}

// runFlow is the library's default flow on one netlist, the calls
// cmd/atpg makes with its default flags at one worker: ReadBench,
// Decompose(c, 3), RunATPGParallel(ctx, c, 1, 0).
func runFlow(ctx context.Context, nl netlist, tr *tracer) (r flowResult) {
	start := time.Now()
	root := tr.begin(nl.Name, "netlist", 0)
	defer func() {
		tr.end(root)
		r.latency = time.Since(start)
	}()

	sp := tr.begin(nl.Name, "parse", root)
	c, err := atpgeasy.ReadBench(bytes.NewReader(nl.Bench), nl.Name)
	tr.end(sp)
	if err != nil {
		r.err = fmt.Errorf("parse: %w", err)
		return r
	}
	sp = tr.begin(nl.Name, "decompose", root)
	d, err := atpgeasy.Decompose(c, 3)
	tr.end(sp)
	if err != nil {
		r.err = fmt.Errorf("decompose: %w", err)
		return r
	}
	r.circuit = d
	sp = tr.begin(nl.Name, "engine", root)
	r.sum, r.err = atpgeasy.RunATPGParallel(ctx, d, 1, 0)
	tr.end(sp)
	if r.sum != nil {
		ph := r.sum.Phases
		tr.derive(sp, []phase{{"rpt", ph.RPT}, {"build", ph.Build}, {"solve", ph.Solve}, {"faultsim", ph.FaultSim}})
	}
	return r
}

// flowPass is the netlist list run once. Only timings, pooled counts, a
// digest of the outputs and — when asked — the claims for the output
// check are kept, so memory does not grow with the list.
type flowPass struct {
	lat, cpu []float64 // per netlist, in seconds
	out      passOutcome
	eng      engineCounters
	claims   []claim // per netlist, when kept; zero for a failed netlist
}

// runFlowPass runs every netlist once, each from a collected heap. With a
// tracer, a collapse probe follows each netlist.
func runFlowPass(ctx context.Context, nls []netlist, tr *tracer, keepClaims bool) flowPass {
	var p flowPass
	dg := newDigest()
	for _, nl := range nls {
		runtime.GC()
		u0 := readUsage()
		r := runFlow(ctx, nl, tr)
		u1 := readUsage()
		p.lat = append(p.lat, r.latency.Seconds())
		p.cpu = append(p.cpu, (u1.cpu - u0.cpu).Seconds())
		if r.err != nil {
			p.out.failed++
			if keepClaims {
				p.claims = append(p.claims, claim{})
			}
			dg.add(nl.Name+": "+r.err.Error(), outcomeCounts{}, nil)
			continue
		}
		s := r.sum
		c := outcomeCounts{
			total: s.Total, detected: s.Detected + s.DetectedByRPT + s.DroppedByFaultSim,
			untestable: s.Untestable, aborted: s.Aborted + s.Errors, vectors: len(s.Vectors),
		}
		p.out.counts.add(c)
		p.out.gates += r.circuit.NumGates()
		dg.add(nl.Name, c, s.Vectors)
		p.eng.add(s)
		if keepClaims {
			p.claims = append(p.claims, flowClaim(s))
		}
		if tr != nil {
			root := tr.begin(nl.Name, "probe", 0)
			sp := tr.begin(nl.Name, "collapse", root)
			collapsedFaults(r.circuit)
			tr.end(sp)
			tr.end(root)
		}
	}
	p.out.digest = dg.sum()
	return p
}

// flowClaim is what a summary claims, in the output check's terms.
func flowClaim(s *atpgeasy.Summary) claim {
	cl := claim{Total: s.Total, Detected: s.Detected + s.DetectedByRPT + s.DroppedByFaultSim, Vectors: s.Vectors}
	for _, res := range s.Results {
		if res.Status == atpg.Untestable {
			cl.Untestable = append(cl.Untestable, res.Fault)
		}
	}
	cl.UntestableCount = s.Untestable
	return cl
}

// checkFlowPass runs the output check on every netlist of a pass that
// kept its claims, re-deriving each circuit from the netlist bytes, and
// returns how many failed.
func checkFlowPass(rep *report, nls []netlist, p flowPass) int {
	failed := 0
	for i, nl := range nls {
		if err := checkFlowClaim(nl, p.claims[i]); err != nil {
			failed++
			rep.fail("%s: %v", nl.Name, err)
		}
	}
	return failed
}

func checkFlowClaim(nl netlist, cl claim) error {
	if cl.Total == 0 {
		return errors.New("the flow failed")
	}
	if len(cl.Untestable) != cl.UntestableCount {
		return fmt.Errorf("summary counts %d untestable faults, results list %d", cl.UntestableCount, len(cl.Untestable))
	}
	c, err := atpgeasy.ReadBench(bytes.NewReader(nl.Bench), nl.Name)
	if err != nil {
		return err
	}
	if c, err = atpgeasy.Decompose(c, 3); err != nil {
		return err
	}
	return checkClaim(c, collapsedFaults(c), cl)
}

// runCLIWorkload runs redundant-logic or resistant-datapath. The output
// check runs after every timed pass, so its own allocation stays out of
// peak_rss_mb.
func runCLIWorkload(cfg runConfig) (*report, error) {
	nls, err := makeInputs(cfg.Workload, cfg.Seed, cfg.Seconds)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	rep := &report{Attempted: len(nls)}
	first := runFlowPass(ctx, nls, nil, true)
	out := first.out
	if !cfg.Trace {
		passes := []flowPass{first}
		for k := 2; k <= flowPasses; k++ {
			p := runFlowPass(ctx, nls, nil, false)
			if p.out.digest != out.digest {
				rep.fail("pass %d returned different outputs than pass 1", k)
			}
			passes = append(passes, p)
		}
		peak := readUsage().maxRSSB
		flowEndToEnd(rep, passes, peak, setupTime(rep, nls))
	} else {
		tr := newTracer()
		pt := runFlowPass(ctx, nls, tr, false)
		if pt.out.digest != out.digest {
			rep.fail("traced pass returned different outputs than the untraced pass")
		}
		totals, err := tr.finish(cfg.TraceOut)
		if err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		spanLayers(rep, totals, pt.out)
		engineLayers(rep, pt.eng)
		rep.set("heap.live_mb", liveHeapMB(), "MB")
		rep.set("trace.overhead_s", sum(pt.lat)-sum(first.lat), "s")
		rep.sample("trace.spans", "%d", len(tr.spans))
	}
	failed := checkFlowPass(rep, nls, first)
	out.counts.report(rep, len(nls)-failed, len(nls))
	rep.Failed = failed
	rep.Correct = failed == 0 && len(rep.Problems) == 0
	rep.Digest = out.digest
	return rep, nil
}

// setupTime is the CLI-flow setup_s: parse + decompose summed over the
// netlists, each netlist taking the median of setupRepeats.
func setupTime(rep *report, nls []netlist) float64 {
	runtime.GC()
	total := 0.0
	for _, nl := range nls {
		xs := make([]float64, setupRepeats)
		for k := range xs {
			t0 := time.Now()
			c, err := atpgeasy.ReadBench(bytes.NewReader(nl.Bench), nl.Name)
			if err == nil {
				_, err = atpgeasy.Decompose(c, 3)
			}
			xs[k] = time.Since(t0).Seconds()
			if err != nil {
				rep.fail("%s: setup: %v", nl.Name, err)
			}
		}
		total += median(xs)
	}
	rep.sample("setup_s", "%d netlists x median of %d", len(nls), setupRepeats)
	return total
}

// passOutcome is the pooled outcome of one pass.
type passOutcome struct {
	counts outcomeCounts
	gates  int // decomposed gates over the netlists that ran
	failed int
	digest string
}

// flowEndToEnd fills the end-to-end metrics of the untraced passes. A
// job here is one netlist through the flow, timed as the median of its
// passes; wall_s and cpu_s sum those medians over the list.
func flowEndToEnd(rep *report, passes []flowPass, peakRSS int64, setup float64) {
	n := len(passes[0].lat)
	lat, cpu := make([]float64, n), make([]float64, n)
	xs := make([]float64, len(passes))
	for i := 0; i < n; i++ {
		for k, p := range passes {
			xs[k] = p.lat[i]
		}
		lat[i] = median(xs)
		for k, p := range passes {
			xs[k] = p.cpu[i]
		}
		cpu[i] = median(xs)
	}
	wall := sum(lat)
	rep.set("wall_s", wall, "s")
	rep.set("cpu_s", sum(cpu), "s")
	rep.set("peak_rss_mb", float64(peakRSS)/mib, "MB")
	rep.set("setup_s", setup, "s")
	rep.set("jobs_per_s", float64(n-passes[0].out.failed)/wall, "1/s")
	rep.set("job_p50_s", median(lat), "s")
	rep.set("job_p95_s", percentile(lat, 0.95), "s")
	for _, name := range []string{"wall_s", "cpu_s"} {
		rep.sample(name, "sum over %d netlists of the median of %d passes", n, len(passes))
	}
	rep.sample("job_p50_s", "%d netlists, each the median of %d passes", n, len(passes))
	rep.sample("job_p95_s", "%d netlists, %d beyond, each the median of %d passes", n, beyond(n, 0.95), len(passes))
}

// liveHeapMB is the live heap after a forced collection.
func liveHeapMB() float64 {
	runtime.GC()
	ms := readMemStats()
	return float64(ms.HeapAlloc) / mib
}
