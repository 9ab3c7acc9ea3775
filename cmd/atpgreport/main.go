// Command atpgreport turns a run's per-fault effort log (and optionally
// its trace) into the paper's predicted-vs-actual analysis: which cheap
// structural features — fanout-cone size and depth, sub-circuit gate
// count, SCOAP — actually predicted where the solver spent its search,
// phase by phase. It is the reporting half of the effort
// observatory: the engine streams atpgeasy/effort/v1 records, this
// command joins, bins, rank-correlates and fits them.
//
// Usage:
//
//	atpgreport -log effort.jsonl [-trace trace.jsonl]
//	           [-format markdown|json] [-top N] [-bins N]
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"time"

	"atpgeasy/internal/atpg"
	"atpgeasy/internal/fit"
	"atpgeasy/internal/ioguard"
	"atpgeasy/internal/obs"
	"atpgeasy/internal/stats"
)

func main() {
	logPath := flag.String("log", "", "effort log (JSONL, schema atpgeasy/effort/v1; required)")
	tracePath := flag.String("trace", "", "trace file with span records (optional; enables span-based phase walls)")
	format := flag.String("format", "markdown", "output format: markdown or json")
	top := flag.Int("top", 10, "number of most expensive faults to list")
	bins := flag.Int("bins", 8, "bins for the feature-vs-effort tables")
	flag.Parse()

	if *logPath == "" {
		fail(fmt.Errorf("-log is required"))
	}
	f, err := os.Open(*logPath)
	if err != nil {
		fail(err)
	}
	hdr, recs, err := atpg.DecodeEffortLog(f)
	f.Close()
	if err != nil {
		fail(err)
	}
	var spans []obs.SpanRecord
	if *tracePath != "" {
		tf, err := os.Open(*tracePath)
		if err != nil {
			fail(err)
		}
		spans, err = readSpans(tf)
		tf.Close()
		if err != nil {
			fail(err)
		}
	}

	rep := buildReport(hdr, recs, spans, *top, *bins)
	switch *format {
	case "markdown":
		os.Stdout.WriteString(rep.Markdown())
	case "json":
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fail(err)
		}
	default:
		fail(fmt.Errorf("unknown -format %q (want markdown or json)", *format))
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "atpgreport:", err)
	os.Exit(1)
}

// readSpans extracts the "kind":"span" records from a JSONL trace. The
// engine writes nothing else to a trace; other valid records (run-level
// events in traces from older versions) are skipped. Torn lines follow the checkpoint journal's rule, like the effort
// decoder: a malformed final line is dropped, a malformed line with
// records after it is an error.
func readSpans(r io.Reader) ([]obs.SpanRecord, error) {
	var spans []obs.SpanRecord
	sc := ioguard.Scanner(r, 0)
	var torn error // a malformed line: fatal unless no record follows it
	for n := 1; sc.Scan(); n++ {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if torn != nil {
			return nil, torn
		}
		if !bytes.Contains(line, []byte(`"kind":"span"`)) {
			if !json.Valid(line) {
				torn = fmt.Errorf("trace line %d: malformed record", n)
			}
			continue
		}
		var sp obs.SpanRecord
		if err := json.Unmarshal(line, &sp); err != nil {
			torn = fmt.Errorf("trace line %d: malformed record: %v", n, err)
			continue
		}
		if sp.Kind == "span" {
			spans = append(spans, sp)
		}
	}
	return spans, ioguard.ScanErr("trace", sc.Err(), 0)
}

// featureCol names one structural-feature column of the effort log.
type featureCol struct {
	Name string
	Get  func(atpg.FaultFeatures) int32
}

// featureCols are the feature columns to analyze.
var featureCols = []featureCol{
	{"cone_size", func(f atpg.FaultFeatures) int32 { return f.ConeSize }},
	{"cone_depth", func(f atpg.FaultFeatures) int32 { return f.ConeDepth }},
	{"gates", func(f atpg.FaultFeatures) int32 { return f.Gates }},
	{"cc0", func(f atpg.FaultFeatures) int32 { return f.CC0 }},
	{"cc1", func(f atpg.FaultFeatures) int32 { return f.CC1 }},
	{"co", func(f atpg.FaultFeatures) int32 { return f.CO }},
}

// Report is the full analysis, renderable as markdown or JSON.
type Report struct {
	Circuit string `json:"circuit"`
	Faults  int    `json:"faults"`
	Workers int    `json:"workers"`
	Records int    `json:"records"`

	// PhaseCounts counts verdict records per pipeline phase; Wasted the
	// discarded speculative solves on top.
	PhaseCounts map[string]int `json:"phase_counts"`
	Statuses    map[string]int `json:"statuses"`
	Wasted      int            `json:"wasted"`

	// PhaseWalls is the per-phase wall-time breakdown. With a trace it
	// comes from the run's spans (rpt/sweep plus the stall and
	// flush intervals inside them); without one it falls back to the
	// solver time summed from the records themselves.
	PhaseWalls  []PhaseWall `json:"phase_walls"`
	WallsSource string      `json:"walls_source"` // "spans" or "records"

	// Correlations is the headline table: Spearman rank correlation of
	// each structural feature against observed solver effort, over the
	// faults that actually reached the solver.
	Correlations []Correlation `json:"correlations"`
	SolverFaults int           `json:"solver_faults"`

	// Binned is one feature-vs-effort table per feature (Figure 1 as
	// tables: mean/max solver effort per feature bin).
	Binned []BinnedFeature `json:"binned"`

	// BestFit is the winning curve family per feature fitted to
	// effort-vs-feature (predicted vs actual), with its R².
	BestFit []FitRow `json:"best_fit"`

	// Top lists the most expensive faults by solver effort.
	Top []TopFault `json:"top"`

	// Incremental summarizes region-grouped incremental solving when the
	// log carries group records: how much learned-clause reuse the groups
	// achieved and how reuse relates to search effort. Nil for a
	// fresh-per-fault run.
	Incremental *IncrementalReuse `json:"incremental,omitempty"`
}

type PhaseWall struct {
	Phase string        `json:"phase"`
	Wall  time.Duration `json:"wall_ns"`
	Spans int           `json:"spans,omitempty"`
}

type Correlation struct {
	Feature  string  `json:"feature"`
	Spearman float64 `json:"spearman"`
	N        int     `json:"n"`
}

type BinnedFeature struct {
	Feature string      `json:"feature"`
	Bins    []stats.Bin `json:"bins"`
}

type FitRow struct {
	Feature string  `json:"feature"`
	Curve   string  `json:"curve"`
	R2      float64 `json:"r2"`
}

type TopFault struct {
	Fault   string        `json:"fault"`
	Status  string        `json:"status"`
	Phase   string        `json:"phase"`
	Tier    int           `json:"tier,omitempty"`
	Effort  int64         `json:"effort"`
	SolveNS time.Duration `json:"solve_ns"`
	Reused  int64         `json:"reused,omitempty"`
}

// IncrementalReuse is the report's incremental-solving section: group
// shape, aggregate learned-clause reuse, and reuse-vs-effort tables over
// the grouped solver-decided faults.
type IncrementalReuse struct {
	GroupedFaults int     `json:"grouped_faults"`
	Groups        int     `json:"groups"`
	MeanGroupSize float64 `json:"mean_group_size"`
	LearnedReused int64   `json:"learned_reused"`
	// Spearman rank-correlates per-fault learned-clause reuse against
	// search effort: strongly positive means the hard faults are exactly
	// the ones leaning on their region neighbors' clauses.
	Spearman float64     `json:"spearman"`
	Bins     []stats.Bin `json:"bins,omitempty"`
}

// solverPhases marks the phases whose records carry real solver search
// counters; RPT detections and wasted speculative solves are excluded
// from the correlation series so zero-effort rows don't drown the signal.
func isSolverPhase(p string) bool {
	return p == "sweep" || p == "retry" || p == "resume"
}

func buildReport(hdr atpg.EffortHeader, recs []atpg.EffortRecord, spans []obs.SpanRecord, top, bins int) *Report {
	rep := &Report{
		Circuit: hdr.Circuit, Faults: hdr.Faults, Workers: hdr.Workers, Records: len(recs),
		PhaseCounts: map[string]int{}, Statuses: map[string]int{},
	}

	var solver []atpg.EffortRecord
	for _, r := range recs {
		if r.Phase == "dropped" {
			// Clean fault-sim drops are verdict records too (Wasted
			// false, zero solver work); only the discarded speculative
			// solves count as waste.
			if r.Wasted {
				rep.Wasted++
			} else {
				rep.PhaseCounts[r.Phase]++
				rep.Statuses[r.Status]++
			}
			continue
		}
		rep.PhaseCounts[r.Phase]++
		rep.Statuses[r.Status]++
		if isSolverPhase(r.Phase) {
			solver = append(solver, r)
		}
	}
	rep.SolverFaults = len(solver)

	rep.PhaseWalls, rep.WallsSource = phaseWalls(recs, spans)

	// Correlation + binned tables + fits over the solver-effort series.
	effort := make([]float64, len(solver))
	for i, r := range solver {
		effort[i] = float64(r.Effort)
	}
	xs := make([]float64, len(solver))
	for _, col := range featureCols {
		for i, r := range solver {
			xs[i] = float64(col.Get(r.FaultFeatures))
		}
		rep.Correlations = append(rep.Correlations, Correlation{
			Feature: col.Name, Spearman: stats.Spearman(xs, effort), N: len(solver),
		})
		if len(solver) > 0 {
			rep.Binned = append(rep.Binned, BinnedFeature{
				Feature: col.Name,
				Bins:    stats.BinnedMeans(xs, effort, bins),
			})
		}
		if best := bestCurve(xs, effort); best != nil {
			rep.BestFit = append(rep.BestFit, FitRow{
				Feature: col.Name, Curve: best.String(), R2: best.R2,
			})
		}
	}
	// Most-negative-first would bury the headline; sort by |ρ| so the
	// strongest predictor leads the table.
	sort.SliceStable(rep.Correlations, func(a, b int) bool {
		return math.Abs(rep.Correlations[a].Spearman) > math.Abs(rep.Correlations[b].Spearman)
	})

	rep.Top = topFaults(solver, top)
	rep.Incremental = incrementalReuse(solver, bins)
	return rep
}

// incrementalReuse aggregates the grouped records' reuse-vs-effort
// relationship, or nil when the run was fresh-per-fault.
func incrementalReuse(solver []atpg.EffortRecord, bins int) *IncrementalReuse {
	var grouped []atpg.EffortRecord
	groups := map[int]bool{}
	for _, r := range solver {
		if r.Group > 0 {
			grouped = append(grouped, r)
			groups[r.Group] = true
		}
	}
	if len(grouped) == 0 {
		return nil
	}
	ir := &IncrementalReuse{GroupedFaults: len(grouped), Groups: len(groups)}
	var sizeSum int64
	reuse := make([]float64, len(grouped))
	effort := make([]float64, len(grouped))
	for i, r := range grouped {
		sizeSum += int64(r.GroupSize)
		ir.LearnedReused += r.LearnedReused
		reuse[i] = float64(r.LearnedReused)
		effort[i] = float64(r.Effort)
	}
	ir.MeanGroupSize = float64(sizeSum) / float64(len(grouped))
	ir.Spearman = stats.Spearman(reuse, effort)
	ir.Bins = stats.BinnedMeans(reuse, effort, bins)
	return ir
}

// bestCurve returns the highest-R² curve family for ys over xs, or nil
// when nothing fits (constant series, too few points).
func bestCurve(xs, ys []float64) *fit.Curve {
	curves := fit.Best(xs, ys)
	var best *fit.Curve
	for i := range curves {
		if !math.IsNaN(curves[i].R2) && (best == nil || curves[i].R2 > best.R2) {
			best = &curves[i]
		}
	}
	return best
}

// phaseWalls prefers span durations (real wall intervals, stalls and
// flushes included) and falls back to per-record solver+build time.
func phaseWalls(recs []atpg.EffortRecord, spans []obs.SpanRecord) ([]PhaseWall, string) {
	if len(spans) > 0 {
		agg := map[string]*PhaseWall{}
		order := []string{}
		for _, sp := range spans {
			switch sp.Name {
			case "run", "rpt", "sweep", "frontier-stall", "flush", "rpt-batch", "checkpoint":
				w, ok := agg[sp.Name]
				if !ok {
					w = &PhaseWall{Phase: sp.Name}
					agg[sp.Name] = w
					order = append(order, sp.Name)
				}
				w.Wall += time.Duration(sp.DurNS)
				w.Spans++
			}
		}
		walls := make([]PhaseWall, 0, len(order))
		for _, n := range order {
			walls = append(walls, *agg[n])
		}
		sort.SliceStable(walls, func(a, b int) bool { return walls[a].Wall > walls[b].Wall })
		return walls, "spans"
	}
	agg := map[string]time.Duration{}
	for _, r := range recs {
		agg[r.Phase] += time.Duration(r.BuildNS + r.SolveNS)
	}
	walls := make([]PhaseWall, 0, len(agg))
	for p, w := range agg {
		walls = append(walls, PhaseWall{Phase: p, Wall: w})
	}
	sort.SliceStable(walls, func(a, b int) bool { return walls[a].Wall > walls[b].Wall })
	return walls, "records"
}

// topFaults lists the k highest-effort solver records.
func topFaults(solver []atpg.EffortRecord, k int) []TopFault {
	byEffort := append([]atpg.EffortRecord(nil), solver...)
	sort.SliceStable(byEffort, func(a, b int) bool { return byEffort[a].Effort > byEffort[b].Effort })
	if k > len(byEffort) {
		k = len(byEffort)
	}
	out := make([]TopFault, 0, k)
	for _, r := range byEffort[:k] {
		out = append(out, TopFault{
			Fault: r.Fault, Status: r.Status, Phase: r.Phase, Tier: r.Tier,
			Effort: r.Effort, SolveNS: time.Duration(r.SolveNS),
			Reused: r.LearnedReused,
		})
	}
	return out
}

// Markdown renders the report for humans (and the CI grep).
func (rep *Report) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# ATPG effort report: %s\n\n", rep.Circuit)
	fmt.Fprintf(&b, "- faults: %d, records: %d, workers: %d\n",
		rep.Faults, rep.Records, rep.Workers)
	fmt.Fprintf(&b, "- phases: %s\n", countLine(rep.PhaseCounts))
	fmt.Fprintf(&b, "- statuses: %s\n", countLine(rep.Statuses))
	fmt.Fprintf(&b, "- wasted speculative solves: %d\n\n", rep.Wasted)

	fmt.Fprintf(&b, "## Per-phase wall time (from %s)\n\n", rep.WallsSource)
	fmt.Fprintf(&b, "| phase | wall | spans |\n|---|---|---|\n")
	for _, w := range rep.PhaseWalls {
		fmt.Fprintf(&b, "| %s | %v | %d |\n", w.Phase, w.Wall.Round(time.Microsecond), w.Spans)
	}
	b.WriteByte('\n')

	fmt.Fprintf(&b, "## Feature vs solver effort: rank correlation\n\n")
	fmt.Fprintf(&b, "Spearman rank correlation of each structural feature against the\nobserved search effort of the %d solver-decided faults.\n\n", rep.SolverFaults)
	fmt.Fprintf(&b, "| feature | spearman | n |\n|---|---|---|\n")
	for _, c := range rep.Correlations {
		fmt.Fprintf(&b, "| %s | %+.3f | %d |\n", c.Feature, c.Spearman, c.N)
	}
	b.WriteByte('\n')

	for _, bf := range rep.Binned {
		fmt.Fprintf(&b, "## Effort vs %s (binned)\n\n", bf.Feature)
		fmt.Fprintf(&b, "| %s | faults | mean effort | max effort |\n|---|---|---|---|\n", bf.Feature)
		for _, bin := range bf.Bins {
			if bin.Count == 0 {
				continue
			}
			fmt.Fprintf(&b, "| %.0f–%.0f | %d | %.1f | %.0f |\n", bin.XLo, bin.XHi, bin.Count, bin.MeanY, bin.MaxY)
		}
		b.WriteByte('\n')
	}

	if len(rep.BestFit) > 0 {
		fmt.Fprintf(&b, "## Predicted vs actual: best-fit curves\n\n")
		fmt.Fprintf(&b, "| feature | best fit | R² |\n|---|---|---|\n")
		for _, f := range rep.BestFit {
			fmt.Fprintf(&b, "| %s | %s | %.4f |\n", f.Feature, f.Curve, f.R2)
		}
		b.WriteByte('\n')
	}

	if len(rep.Top) > 0 {
		fmt.Fprintf(&b, "## Top %d most expensive faults\n\n", len(rep.Top))
		fmt.Fprintf(&b, "| fault | status | phase | tier | effort | solve | reused |\n|---|---|---|---|---|---|---|\n")
		for _, t := range rep.Top {
			fmt.Fprintf(&b, "| %s | %s | %s | %d | %d | %v | %d |\n",
				t.Fault, t.Status, t.Phase, t.Tier, t.Effort, t.SolveNS.Round(time.Microsecond), t.Reused)
		}
		b.WriteByte('\n')
	}

	if ir := rep.Incremental; ir != nil {
		fmt.Fprintf(&b, "## Incremental reuse vs effort\n\n")
		fmt.Fprintf(&b, "%d faults solved in %d region groups (mean size %.1f); %d learned clauses reused in conflict analysis. Spearman(reuse, effort) = %+.3f.\n\n",
			ir.GroupedFaults, ir.Groups, ir.MeanGroupSize, ir.LearnedReused, ir.Spearman)
		fmt.Fprintf(&b, "| learned reused | faults | mean effort | max effort |\n|---|---|---|---|\n")
		for _, bin := range ir.Bins {
			if bin.Count == 0 {
				continue
			}
			fmt.Fprintf(&b, "| %.0f–%.0f | %d | %.1f | %.0f |\n", bin.XLo, bin.XHi, bin.Count, bin.MeanY, bin.MaxY)
		}
		b.WriteByte('\n')
	}

	return b.String()
}

// countLine renders a count map deterministically (descending count,
// then name).
func countLine(m map[string]int) string {
	if len(m) == 0 {
		return "none"
	}
	type kv struct {
		k string
		v int
	}
	kvs := make([]kv, 0, len(m))
	for k, v := range m {
		kvs = append(kvs, kv{k, v})
	}
	sort.Slice(kvs, func(a, b int) bool {
		if kvs[a].v != kvs[b].v {
			return kvs[a].v > kvs[b].v
		}
		return kvs[a].k < kvs[b].k
	})
	parts := make([]string, len(kvs))
	for i, e := range kvs {
		parts[i] = fmt.Sprintf("%s %d", e.k, e.v)
	}
	return strings.Join(parts, ", ")
}
