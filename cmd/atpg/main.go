// Command atpg is the TEGUS-style SAT-based test pattern generator: it
// reads a combinational netlist (.bench or BLIF) or builds a generated
// circuit, runs ATPG over every (optionally collapsed) stuck-at fault, and
// reports coverage, test vectors and per-instance SAT statistics.
//
// Usage:
//
//	atpg -bench FILE | -blif FILE | -gen NAME
//	     [-collapse] [-dominance] [-drop] [-group-max N]
//	     [-j WORKERS] [-budget DURATION]
//	     [-rpt-batches N] [-seed N]
//	     [-checkpoint FILE] [-resume] [-checkpoint-sync] [-checkpoint-every DUR]
//	     [-metrics-addr ADDR] [-trace FILE] [-progress DUR] [-json]
//	     [-effort-log FILE]
//	     [-decompose] [-vectors] [-dimacs DIR] [-v]
//
// Generated circuit names (NAME): ripple<N>, cla<N>, mult<N>, alu<N>,
// parity<N>, dec<N>, mux<SEL>, cmp<N>, cell1d<N>, tree<K>x<D>,
// rand<GATES>.
//
// The run opens with a random-pattern pre-phase (classic TEGUS flow): up
// to -rpt-batches batches of 64 seeded random patterns are fault-simulated
// against the whole fault list, keeping only patterns that detect a new
// fault; the SAT engine then targets just the random-pattern-resistant
// survivors. -rpt-batches 0 disables the phase; it also stops after
// atpg.DefaultRPTIdleStop (4) consecutive batches that detect nothing
// new. -seed makes the whole run reproducible. -dominance adds
// dominance-based fault collapsing on top of -collapse equivalence
// collapsing.
//
// The engine runs incrementally: faults sharing a transitive-fanout
// region are grouped (at most -group-max per group), encoded once with
// per-fault activation literals, and solved on a persistent per-worker
// CDCL instance that keeps learned clauses alive across the group — same
// verdicts and vectors as fresh-per-fault solving, less repeated search.
// -group-max 1 is the fresh-per-fault ablation: the same incremental
// core, every fault in its own group.
//
// Faults are dispatched to -j parallel workers (default: GOMAXPROCS);
// -budget bounds the SAT time of each attempt at a fault, reporting a
// fault aborted instead of stalling the run once its attempts are
// spent. Interrupting the run (SIGINT or SIGTERM) drains the workers and
// prints the partial results.
//
// Robustness: with -budget, a fault that exhausts its budget is solved
// again at once by the same worker on the same solver instance, its
// learned clauses intact, with geometrically escalating budgets (up to
// atpg.RetryTiers = 3 times, each atpg.RetryBackoff = 4 times the
// last); it is reported aborted only after the final attempt. Every
// verdict is final at the fault's own dispatch position, so a budgeted
// run whose aborts all recover lists the unbudgeted run's vectors.
// -checkpoint journals every final verdict to an append-only JSONL file
// (flushed per record, fsynced per record with -checkpoint-sync, and
// every -checkpoint-every besides), so a killed run resumes with
// -resume: the seeded pre-phase runs again, as it did in the killed run,
// and each journaled verdict is adopted at its own dispatch position,
// where its vector drops faults again, so the resume reproduces the
// uninterrupted run's vector set, -drop or not. The journal holds a
// header and the solver verdicts, nothing else. Memory needs no flag:
// each worker's learned clauses die at every region group's load and
// are capped at sat.DefaultLearnedLimit besides.
//
// Observability: -metrics-addr serves Prometheus-text /metrics,
// /debug/vars and net/http/pprof for the duration of the run; -trace
// writes the run's spans as JSONL "kind":"span" records — run → phase
// (rpt, sweep) → group or rpt-batch, plus one span per fault-simulation
// flush, commit-frontier stall and checkpoint sync;
// -progress prints a live progress line (faults done, coverage, ETA)
// to stderr on the given period; -json replaces the human summary on
// stdout with a machine-readable JSON document (schema
// atpgeasy/run-summary/v1, documented in README.md). -effort-log streams
// one structured record per fault verdict — structural features joined
// with solver effort, schema atpgeasy/effort/v1, the run's one per-fault
// record — for cmd/atpgreport. The same spans, -trace or not, feed a
// flight recorder of the newest 64, which a fault panic or an interrupt
// dumps to stderr.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"atpgeasy/internal/atpg"
	"atpgeasy/internal/bench"
	"atpgeasy/internal/blif"
	"atpgeasy/internal/checkpoint"
	"atpgeasy/internal/decomp"
	"atpgeasy/internal/gen"
	"atpgeasy/internal/logic"
	"atpgeasy/internal/obs"
	"atpgeasy/internal/sat"
)

func main() {
	benchFile := flag.String("bench", "", "read an ISCAS .bench netlist")
	blifFile := flag.String("blif", "", "read a BLIF model")
	genName := flag.String("gen", "", "build a generated circuit (see -h)")
	opt := atpg.DefaultRunOptions()
	flag.BoolVar(&opt.Collapse, "collapse", opt.Collapse, "apply structural fault collapsing (gate-local equivalence)")
	flag.BoolVar(&opt.Dominance, "dominance", opt.Dominance, "additionally apply dominance-based fault collapsing")
	flag.BoolVar(&opt.DropDetected, "drop", opt.DropDetected, "drop faults detected by earlier vectors (fault simulation)")
	flag.IntVar(&opt.RPTBatches, "rpt-batches", opt.RPTBatches, "random-pattern pre-phase: max 64-pattern batches (0 = disable)")
	flag.Int64Var(&opt.Seed, "seed", opt.Seed, "random-pattern generator seed (same seed = same run)")
	flag.IntVar(&opt.GroupMax, "group-max", atpg.DefaultGroupMax, "max faults per region group on the incremental CDCL core (1 = fresh instance per fault)")
	workers := flag.Int("j", 0, "parallel fault workers (0 = GOMAXPROCS)")
	flag.DurationVar(&opt.PerFaultBudget, "budget", 0, fmt.Sprintf("SAT time budget of a fault's first attempt (0 = none); an over-budget fault is solved again in place up to %d times, each with %dx the last budget", atpg.RetryTiers, atpg.RetryBackoff))
	ckptPath := flag.String("checkpoint", "", "journal final fault verdicts to this JSONL file for crash recovery")
	resumeRun := flag.Bool("resume", false, "replay the -checkpoint journal, skipping faults it already decided")
	ckptSync := flag.Bool("checkpoint-sync", false, "fsync the checkpoint journal after every record (survives power loss, not just kill -9)")
	ckptEvery := flag.Duration("checkpoint-every", 5*time.Second, "periodic checkpoint fsync interval (0 = only on open and exit)")
	decompose := flag.Bool("decompose", true, "tech-decompose to ≤3-input AND/OR first (as TEGUS requires)")
	vectors := flag.Bool("vectors", false, "print the generated test vectors")
	dimacsDir := flag.String("dimacs", "", "dump every ATPG-SAT instance as DIMACS CNF into this directory")
	verbose := flag.Bool("v", false, "print per-fault results")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this host:port for the duration of the run (port 0 picks one)")
	traceFile := flag.String("trace", "", "write the run's hierarchical spans (run, phases, region groups, RPT batches, flushes, stalls, checkpoint syncs) to this file as JSONL \"kind\":\"span\" records; per-fault records go to -effort-log")
	effortLog := flag.String("effort-log", "", "stream per-fault effort records (features + solver effort, JSONL) to this file")
	progressEvery := flag.Duration("progress", 0, "print a live progress line to stderr on this period (0 = off)")
	jsonOut := flag.Bool("json", false, "print a machine-readable JSON run summary to stdout (human report moves to stderr)")
	flag.Parse()

	// With -json, stdout carries exactly one JSON document; everything
	// human-readable moves to stderr.
	info := io.Writer(os.Stdout)
	if *jsonOut {
		info = os.Stderr
	}

	c, err := loadCircuit(*benchFile, *blifFile, *genName)
	if err != nil {
		fail(err)
	}
	if *decompose {
		if c, err = decomp.Decompose(c, 3); err != nil {
			fail(err)
		}
	}
	fmt.Fprintf(info, "circuit: %s (depth %d, max fanout %d)\n", c, c.Depth(), c.MaxFanout())

	// The collapsed fault list is computed here (not inside the engine) so
	// the checkpoint header can fingerprint its exact content.
	faults := atpg.AllFaults(c)
	if opt.Collapse {
		faults = atpg.Collapse(c, faults)
	}
	if opt.Dominance {
		faults = atpg.CollapseDominance(c, faults)
	}

	eng := &atpg.Engine{Workers: *workers}
	if *dimacsDir != "" {
		if err := dumpDIMACS(c, faults, *dimacsDir, info); err != nil {
			fail(err)
		}
	}

	effectiveWorkers := *workers
	if effectiveWorkers <= 0 {
		effectiveWorkers = runtime.GOMAXPROCS(0)
	}
	effectiveGroupMax := opt.GroupMax
	if effectiveGroupMax <= 0 {
		effectiveGroupMax = atpg.DefaultGroupMax
	}
	tel, closeTel, err := setupTelemetry(*metricsAddr, *traceFile, *progressEvery)
	if err != nil {
		fail(err)
	}

	// The flight recorder is always on: without -trace the run's spans
	// still go to a record-only trace, the only record of the engine's
	// recent activity when a run is interrupted.
	if tel == nil {
		tel = &atpg.Telemetry{}
	}
	if tel.Trace == nil {
		tel.Trace = obs.NewTrace(nil)
	}

	opt.Telemetry = tel
	if *effortLog != "" {
		el, err := atpg.CreateEffortLog(*effortLog)
		if err != nil {
			fail(err)
		}
		opt.EffortLog = el
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var journal *checkpoint.Journal
	if *ckptPath != "" {
		journal, opt.Resume, err = openCheckpoint(*ckptPath, *resumeRun, c, faults, opt,
			checkpoint.Options{Sync: *ckptSync})
		if err != nil {
			fail(err)
		}
		opt.Journal = journal
		if opt.Resume != nil {
			fmt.Fprintf(info, "checkpoint: resuming %s — %d of %d faults already decided\n",
				*ckptPath, len(opt.Resume.Faults), len(faults))
		}
	}
	stopSyncer := startCheckpointSyncer(ctx, journal, *ckptEvery, tel.Trace)

	sum, err := eng.RunFaults(ctx, c, faults, opt)

	// Flush order matters on every exit path — including engine errors and
	// interrupts: the trace sink and the journal hold buffered records that
	// must reach disk before the process reports anything (or dies). The
	// old code called fail() on engine errors before closing the trace,
	// losing the tail of the event log.
	stopSyncer()
	telErr := closeTel()
	if journal != nil {
		if cerr := journal.Close(); cerr != nil {
			// A sticky journal write error degraded the run to
			// uncheckpointed; the results themselves are fine.
			fmt.Fprintf(os.Stderr, "atpg: checkpoint journal: %v\n", cerr)
		}
	}
	if opt.EffortLog != nil {
		if cerr := opt.EffortLog.Close(); cerr != nil {
			// Like the journal: a degraded effort log never fails the run.
			fmt.Fprintf(os.Stderr, "atpg: effort log: %v\n", cerr)
		} else {
			fmt.Fprintf(info, "effort log: %d records to %s\n", opt.EffortLog.Records()-1, *effortLog)
		}
	}
	interrupted := errors.Is(err, context.Canceled)
	if err != nil && !interrupted {
		fail(err)
	}
	if telErr != nil {
		fail(telErr)
	}
	if interrupted {
		fmt.Fprintln(os.Stderr, "atpg: interrupted — partial results follow")
		tel.Trace.Dump(os.Stderr, 32)
	}
	if *verbose {
		for _, r := range sum.Results {
			fmt.Fprintf(info, "  %-20s %-11s %6d vars %8d clauses %10v\n",
				r.Fault.Name(c), r.Status, r.Vars, r.Clauses, r.Elapsed)
		}
	}
	fmt.Fprintf(info, "faults: %d  rpt-detected: %d  detected: %d  untestable: %d  aborted: %d  errors: %d  dropped-by-sim: %d\n",
		sum.Total, sum.DetectedByRPT, sum.Detected, sum.Untestable, sum.Aborted, sum.Errors, sum.DroppedByFaultSim)
	fmt.Fprintf(info, "rpt: %d batches, %d patterns kept, %d solver calls avoided\n",
		sum.RPTBatches, sum.RPTVectors, sum.DetectedByRPT)
	for _, rt := range sum.Retries {
		fmt.Fprintf(info, "retry tier %d: budget %v, attempted %d, recovered %d\n",
			rt.Tier, rt.Budget, rt.Attempted, rt.Recovered)
	}
	fmt.Fprintf(info, "fault coverage (testable): %.2f%%   vectors: %d   SAT time: %v   wall: %v\n",
		100*sum.Coverage(), len(sum.Vectors), sum.Phases.Solve, sum.WallElapsed.Round(time.Microsecond))
	fmt.Fprintf(info, "phases: rpt %v   build %v (load %v)   solve %v   fault-sim %v\n",
		sum.Phases.RPT.Round(time.Microsecond),
		sum.Phases.Build.Round(time.Microsecond), sum.Phases.Load.Round(time.Microsecond),
		sum.Phases.Solve.Round(time.Microsecond),
		sum.Phases.FaultSim.Round(time.Microsecond))
	if sum.SolverTotals.LearnedKept > 0 || sum.SolverTotals.LearnedReused > 0 {
		fmt.Fprintf(info, "incremental: learned clauses kept %d   reused %d   clause-db peak %d bytes\n",
			sum.SolverTotals.LearnedKept, sum.SolverTotals.LearnedReused, sum.SolverTotals.ClauseDBBytes)
	}
	if *jsonOut {
		doc := buildJSONSummary(sum, effectiveWorkers, opt.PerFaultBudget, effectiveGroupMax, interrupted)
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			fail(err)
		}
	}
	if interrupted {
		os.Exit(1)
	}
	if *vectors {
		names := c.Names(c.Inputs)
		fmt.Fprintln(info, "test vectors (inputs:", strings.Join(names, ","), "):")
		for _, v := range sum.Vectors {
			bits := make([]byte, len(v))
			for i, b := range v {
				bits[i] = '0'
				if b {
					bits[i] = '1'
				}
			}
			fmt.Fprintf(info, "  %s\n", bits)
		}
	}
}

// setupTelemetry wires the -metrics-addr, -trace and -progress flags into
// an engine telemetry configuration. The returned close function flushes
// the trace and stops the metrics server; it is safe to call when all
// three flags are off (tel is then nil).
func setupTelemetry(metricsAddr, traceFile string, progressEvery time.Duration) (*atpg.Telemetry, func() error, error) {
	if metricsAddr == "" && traceFile == "" && progressEvery <= 0 {
		return nil, func() error { return nil }, nil
	}
	tel := &atpg.Telemetry{}
	var closers []func() error
	if metricsAddr != "" {
		reg := obs.NewRegistry()
		tel.Metrics = atpg.NewMetrics(reg)
		srv, err := obs.Serve(metricsAddr, reg)
		if err != nil {
			return nil, nil, err
		}
		fmt.Fprintf(os.Stderr, "atpg: metrics on http://%s/metrics (pprof on /debug/pprof/)\n", srv.Addr())
		closers = append(closers, func() error {
			// Let an in-flight scrape finish before the server goes away;
			// past the deadline Shutdown falls back to a hard Close itself.
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			return srv.Shutdown(ctx)
		})
	}
	if traceFile != "" {
		tr, err := obs.CreateTrace(traceFile)
		if err != nil {
			return nil, nil, err
		}
		tel.Trace = tr
		closers = append(closers, tr.Close)
	}
	if progressEvery > 0 {
		tel.ProgressEvery = progressEvery
		tel.OnProgress = func(p atpg.Progress) {
			fmt.Fprintf(os.Stderr, "atpg: %s\n", p)
		}
	}
	return tel, func() error {
		var first error
		for _, c := range closers {
			if err := c(); err != nil && first == nil {
				first = err
			}
		}
		return first
	}, nil
}

// runSummaryJSON is the -json output document. The schema field names the
// format version; see README.md ("Observability") for the field-by-field
// description.
type runSummaryJSON struct {
	Schema       string           `json:"schema"`
	Circuit      string           `json:"circuit"`
	Workers      int              `json:"workers"`
	GroupMax     int              `json:"group_max"`
	BudgetNS     int64            `json:"budget_ns,omitempty"`
	Faults       faultCountsJSON  `json:"faults"`
	Coverage     float64          `json:"coverage"`
	Vectors      int              `json:"vectors"`
	WastedSolves int              `json:"wasted_solves"`
	RPT          rptJSON          `json:"rpt"`
	Phases       atpg.PhaseTimes  `json:"phases"`
	SATTimeNS    int64            `json:"sat_time_ns"`
	WallNS       int64            `json:"wall_ns"`
	SolverStats  sat.Stats        `json:"solver_totals"`
	Retries      []atpg.RetryTier `json:"retries,omitempty"`
	Interrupted  bool             `json:"interrupted,omitempty"`
}

type faultCountsJSON struct {
	Total         int `json:"total"`
	Detected      int `json:"detected"`
	DetectedByRPT int `json:"detected_by_rpt"`
	Untestable    int `json:"untestable"`
	Aborted       int `json:"aborted"`
	Errors        int `json:"errors"`
	Dropped       int `json:"dropped_by_sim"`
}

type rptJSON struct {
	Batches int `json:"batches"`
	Vectors int `json:"vectors"`
}

const summarySchema = "atpgeasy/run-summary/v1"

func buildJSONSummary(sum *atpg.Summary, workers int, budget time.Duration, groupMax int, interrupted bool) runSummaryJSON {
	return runSummaryJSON{
		Schema:   summarySchema,
		Circuit:  sum.Circuit,
		Workers:  workers,
		GroupMax: groupMax,
		BudgetNS: func() int64 {
			if budget > 0 {
				return budget.Nanoseconds()
			}
			return 0
		}(),
		Faults: faultCountsJSON{
			Total:         sum.Total,
			Detected:      sum.Detected,
			DetectedByRPT: sum.DetectedByRPT,
			Untestable:    sum.Untestable,
			Aborted:       sum.Aborted,
			Errors:        sum.Errors,
			Dropped:       sum.DroppedByFaultSim,
		},
		Coverage:     sum.Coverage(),
		Vectors:      len(sum.Vectors),
		WastedSolves: sum.WastedSolves,
		RPT: rptJSON{
			Batches: sum.RPTBatches,
			Vectors: sum.RPTVectors,
		},
		Phases:      sum.Phases,
		SATTimeNS:   sum.Phases.Solve.Nanoseconds(),
		WallNS:      sum.WallElapsed.Nanoseconds(),
		SolverStats: sum.SolverTotals,
		Retries:     sum.Retries,
		Interrupted: interrupted,
	}
}

// openCheckpoint opens (or, with resume, continues) the journal at path
// through checkpoint.Open, adding the CLI's starting-fresh notice when a
// -resume finds no journal on disk.
func openCheckpoint(path string, resume bool, c *logic.Circuit, faults []atpg.Fault, opt atpg.RunOptions, copt checkpoint.Options) (*checkpoint.Journal, *atpg.ResumeState, error) {
	if resume {
		if _, err := os.Stat(path); errors.Is(err, os.ErrNotExist) {
			fmt.Fprintf(os.Stderr, "atpg: -resume: no journal at %s, starting fresh\n", path)
		}
	}
	return checkpoint.Open(path, resume, c, faults, opt, copt)
}

// startCheckpointSyncer fsyncs the journal on the given period and once
// more when ctx is cancelled (SIGINT/SIGTERM), so a signal-drained run's
// verdicts are durable even if the process is then killed hard. Each
// flush is recorded as a top-level "checkpoint" span on tr.
// The returned stop function waits for the goroutine to exit; it is a
// no-op without a journal.
func startCheckpointSyncer(ctx context.Context, j *checkpoint.Journal, every time.Duration, tr *obs.Trace) func() {
	if j == nil {
		return func() {}
	}
	flush := func() {
		sp := tr.Start("checkpoint", obs.SpanContext{})
		j.Sync()
		sp.End()
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var tick <-chan time.Time
		if every > 0 {
			t := time.NewTicker(every)
			defer t.Stop()
			tick = t.C
		}
		for {
			select {
			case <-tick:
				flush()
			case <-ctx.Done():
				flush()
				return
			case <-done:
				return
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}

func loadCircuit(benchFile, blifFile, genName string) (*logic.Circuit, error) {
	switch {
	case benchFile != "":
		f, err := os.Open(benchFile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return bench.Read(f, strings.TrimSuffix(benchFile, ".bench"))
	case blifFile != "":
		f, err := os.Open(blifFile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return blif.Read(f)
	case genName != "":
		return generate(genName)
	default:
		return nil, fmt.Errorf("one of -bench, -blif or -gen is required")
	}
}

// generate builds a named generator circuit, e.g. "ripple16" or "tree3x4".
func generate(name string) (*logic.Circuit, error) {
	num := func(prefix string) (int, bool) {
		if !strings.HasPrefix(name, prefix) {
			return 0, false
		}
		n, err := strconv.Atoi(name[len(prefix):])
		return n, err == nil && n > 0
	}
	if n, ok := num("ripple"); ok {
		return gen.RippleAdder(n), nil
	}
	if n, ok := num("cla"); ok {
		return gen.CarryLookaheadAdder(n), nil
	}
	if n, ok := num("mult"); ok {
		return gen.ArrayMultiplier(n), nil
	}
	if n, ok := num("alu"); ok {
		return gen.ALU(n), nil
	}
	if n, ok := num("parity"); ok {
		return gen.ParityTree(n), nil
	}
	if n, ok := num("dec"); ok {
		return gen.Decoder(n), nil
	}
	if n, ok := num("mux"); ok {
		return gen.MuxTree(n), nil
	}
	if n, ok := num("cmp"); ok {
		return gen.Comparator(n), nil
	}
	if n, ok := num("cell1d"); ok {
		return gen.CellularArray1D(n), nil
	}
	if n, ok := num("rand"); ok {
		return gen.Random(gen.RandomParams{Inputs: 8 + n/20, Gates: n, Seed: 1}), nil
	}
	if strings.HasPrefix(name, "tree") {
		parts := strings.SplitN(name[4:], "x", 2)
		if len(parts) == 2 {
			k, err1 := strconv.Atoi(parts[0])
			d, err2 := strconv.Atoi(parts[1])
			if err1 == nil && err2 == nil && k >= 2 && d >= 1 {
				return gen.KaryTree(k, d), nil
			}
		}
	}
	return nil, fmt.Errorf("unknown generator %q", name)
}

// dumpDIMACS writes one DIMACS CNF file per (collapsed) fault — the raw
// ATPG-SAT instances, for use with external SAT solvers.
func dumpDIMACS(c *logic.Circuit, faults []atpg.Fault, dir string, info io.Writer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	n := 0
	for _, f := range faults {
		m, err := atpg.NewMiter(c, f)
		if err == atpg.ErrUnobservable {
			continue
		}
		if err != nil {
			return err
		}
		formula, err := m.Encode()
		if err != nil {
			return err
		}
		name := strings.ReplaceAll(f.Name(c), "/", "_sa")
		out, err := os.Create(fmt.Sprintf("%s/%s.cnf", dir, name))
		if err != nil {
			return err
		}
		err = formula.WriteDIMACS(out)
		if cerr := out.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		n++
	}
	fmt.Fprintf(info, "wrote %d DIMACS instances to %s\n", n, dir)
	return nil
}

// fail prints err once prefixed with "atpg:" — engine errors already
// carry the prefix — and exits 1.
func fail(err error) {
	msg := err.Error()
	if !strings.HasPrefix(msg, "atpg: ") {
		msg = "atpg: " + msg
	}
	fmt.Fprintln(os.Stderr, msg)
	os.Exit(1)
}
