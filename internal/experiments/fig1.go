package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"atpgeasy/internal/atpg"
	"atpgeasy/internal/fit"
	"atpgeasy/internal/obs"
	"atpgeasy/internal/stats"
)

// Figure1Point is one SAT instance of the Figure 1 scatter: ATPG-SAT
// instance size (variables) against solve time.
type Figure1Point struct {
	Circuit string
	Fault   string
	Vars    int
	Clauses int
	Time    time.Duration
	Status  atpg.Status
}

// Figure1Result reproduces Figure 1: "Results of TEGUS on ATPG-SAT
// instances". The paper reports ~11,000 instances, some with over 15,000
// variables, over 90% solved in under 10 ms, the remainder growing
// roughly cubically.
type Figure1Result struct {
	Points     []Figure1Point
	Detected   int
	Untestable int
	Aborted    int
	// FracUnder10ms and FracUnder1ms are the fast-instance fractions (the
	// paper's headline is the 10 ms one; 1 ms compensates for 25 years of
	// hardware).
	FracUnder10ms float64
	FracUnder1ms  float64
	P50, P90, P99 time.Duration
	MaxVars       int
	// TimeHist is the log2-bucketed distribution of per-fault solve times
	// (nanoseconds) — the same histogram the engine exports live on
	// /metrics as atpg_fault_solve_ns, and the distribution shape that the
	// Section 3.3 average-time parameterization argues over: almost all
	// mass in the fast buckets with a thin polynomial tail.
	TimeHist obs.HistogramSnapshot
	// Fits are the time-vs-vars least-squares fits, best first; the
	// power-fit exponent is the analogue of the paper's "roughly cubic"
	// tail remark.
	Fits []fit.Curve
}

// Figure1 runs SAT-based ATPG (DPLL solver, the TEGUS stand-in) on every
// collapsed stuck-at fault of both benchmark suites and records per-
// instance solve time against instance size.
func Figure1(cfg Config) (*Figure1Result, error) {
	res := &Figure1Result{}
	eng := &atpg.Engine{}
	hist := obs.NewHistogram()
	for _, suiteName := range []string{SuiteMCNC, SuiteISCAS} {
		ncs, err := suite(suiteName, cfg)
		if err != nil {
			return nil, err
		}
		for _, nc := range ncs {
			faults := atpg.Collapse(nc.C, atpg.AllFaults(nc.C))
			max := cfg.MaxFaultsPerCircuit
			if cfg.Quick && max == 0 {
				max = 30
			}
			faults = sampleFaults(faults, max, cfg.Seed+int64(len(res.Points)))
			cfg.progressf("fig1: %s (%d faults)\n", circuitLabel(nc), len(faults))
			for _, f := range faults {
				r, err := eng.TestFault(nc.C, f)
				if err != nil {
					return nil, fmt.Errorf("%s %s: %w", nc.Role, f.Name(nc.C), err)
				}
				switch r.Status {
				case atpg.Detected:
					res.Detected++
				case atpg.Untestable:
					res.Untestable++
				default:
					res.Aborted++
				}
				if r.Vars == 0 {
					continue // trivially untestable, no SAT instance built
				}
				hist.Observe(r.Elapsed.Nanoseconds())
				res.Points = append(res.Points, Figure1Point{
					Circuit: nc.Role,
					Fault:   f.Name(nc.C),
					Vars:    r.Vars,
					Clauses: r.Clauses,
					Time:    r.Elapsed,
					Status:  r.Status,
				})
			}
		}
	}
	if len(res.Points) == 0 {
		return nil, fmt.Errorf("experiments: Figure1 produced no instances")
	}
	times := make([]float64, len(res.Points))
	xs := make([]float64, len(res.Points))
	for i, p := range res.Points {
		times[i] = float64(p.Time.Nanoseconds())
		xs[i] = float64(p.Vars)
		if p.Vars > res.MaxVars {
			res.MaxVars = p.Vars
		}
	}
	res.FracUnder10ms = stats.FractionBelow(times, 10e6)
	res.FracUnder1ms = stats.FractionBelow(times, 1e6)
	res.P50 = time.Duration(stats.Percentile(times, 50))
	res.P90 = time.Duration(stats.Percentile(times, 90))
	res.P99 = time.Duration(stats.Percentile(times, 99))
	res.Fits = fit.Best(xs, times)
	res.TimeHist = hist.Snapshot()
	return res, nil
}

// Render prints the Figure 1 report.
func (r *Figure1Result) Render(w io.Writer) error {
	hr(w, "Figure 1 — SAT solve time vs. ATPG-SAT instance size")
	fmt.Fprintf(w, "instances: %d  (detected %d, untestable %d, aborted %d)\n",
		len(r.Points), r.Detected, r.Untestable, r.Aborted)
	fmt.Fprintf(w, "largest instance: %d variables\n", r.MaxVars)
	fmt.Fprintf(w, "solved under 10 ms: %.1f%%   under 1 ms: %.1f%%   (paper: >90%% under 10 ms)\n",
		100*r.FracUnder10ms, 100*r.FracUnder1ms)
	fmt.Fprintf(w, "time percentiles: p50 %v  p90 %v  p99 %v\n", r.P50, r.P90, r.P99)
	if r.TimeHist.Count > 0 {
		fmt.Fprintf(w, "solve-time histogram (log2 ns buckets; mean %v, hist p50 %v, hist p99 %v):\n",
			time.Duration(r.TimeHist.Mean()),
			time.Duration(r.TimeHist.Quantile(0.50)),
			time.Duration(r.TimeHist.Quantile(0.99)))
		for _, b := range r.TimeHist.Buckets {
			if b.Count == 0 {
				continue
			}
			frac := float64(b.Count) / float64(r.TimeHist.Count)
			fmt.Fprintf(w, "  ≤ %10v  %6d  %5.1f%%  %s\n",
				time.Duration(b.Le), b.Count, 100*frac,
				strings.Repeat("#", 1+int(40*frac)))
		}
	}
	fmt.Fprintln(w, "time-vs-vars fits (best first; the paper's tail grows ~cubically in instance size):")
	for _, c := range r.Fits {
		fmt.Fprintf(w, "  %s\n", c.String())
	}
	xs := make([]float64, len(r.Points))
	ys := make([]float64, len(r.Points))
	for i, p := range r.Points {
		xs[i] = float64(p.Vars)
		ys[i] = float64(p.Time.Microseconds())
	}
	fmt.Fprint(w, stats.Scatter(xs, ys, 72, 16, "solve time (µs) vs. instance variables"))
	return nil
}

// WriteCSV emits the raw scatter data.
func (r *Figure1Result) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"circuit", "fault", "vars", "clauses", "time_ns", "status"}); err != nil {
		return err
	}
	for _, p := range r.Points {
		rec := []string{
			p.Circuit, p.Fault,
			strconv.Itoa(p.Vars), strconv.Itoa(p.Clauses),
			strconv.FormatInt(p.Time.Nanoseconds(), 10),
			p.Status.String(),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
