// Package atpgeasy is a from-scratch Go reproduction of "Why is ATPG
// Easy?" (Prasad, Chong, Keutzer, DAC 1999): SAT-based automatic test
// pattern generation in the Larrabee/TEGUS formulation, the caching-based
// backtracking solver of the paper's Algorithm 1, and the cut-width
// machinery that explains why practically encountered ATPG instances are
// tractable despite the problem's NP-completeness.
//
// This package is the facade over the implementation packages:
//
//	internal/logic       gate-level Boolean networks and simulation
//	internal/bench,blif  ISCAS .bench and BLIF netlist I/O
//	internal/decomp      technology decomposition to ≤k-input AND/OR
//	internal/cnf         CIRCUIT-SAT encoding (Figure 2)
//	internal/sat         Simple / Caching (Algorithm 1) / DPLL solvers
//	internal/atpg        fault lists, the C_ψ^ATPG miter, the engine
//	internal/faultsim    64-way parallel-pattern fault simulation
//	internal/hypergraph  cut-width (Definition 4.1)
//	internal/partition   Fiduccia–Mattheyses bipartitioning
//	internal/mla         min-cut linear arrangement (exact + recursive)
//	internal/core        DCSF counts, Theorem 4.1/Lemma 4.2/5.2 machinery
//	internal/kbounded    Fujiwara's k-bounded class (Section 3.2)
//	internal/qhorn       Horn/2-SAT/renamable/q-Horn recognition (3.1)
//	internal/bdd         ROBDDs and the Berman/McMillan bound (Section 6)
//	internal/gen         circuit generators and benchmark-suite stand-ins
//	internal/experiments the paper's figures as runnable experiments
//
// The quickstart is three calls: build (or load) a circuit, pick a fault,
// generate a test:
//
//	b := atpgeasy.NewBuilder("demo")
//	x, y := b.Input("x"), b.Input("y")
//	b.MarkOutput(b.Gate(atpgeasy.And, "g", x, y))
//	c := b.MustBuild()
//	res, _ := atpgeasy.GenerateTest(c, atpgeasy.Fault{Net: c.MustLookup("g"), StuckAt: false})
package atpgeasy

import (
	"context"
	"io"
	"time"

	"atpgeasy/internal/atpg"
	"atpgeasy/internal/bench"
	"atpgeasy/internal/blif"
	"atpgeasy/internal/checkpoint"
	"atpgeasy/internal/cnf"
	"atpgeasy/internal/core"
	"atpgeasy/internal/decomp"
	"atpgeasy/internal/hypergraph"
	"atpgeasy/internal/logic"
	"atpgeasy/internal/mla"
	"atpgeasy/internal/obs"
	"atpgeasy/internal/sat"
)

// Core circuit types, re-exported from the implementation packages.
type (
	// Circuit is an immutable combinational Boolean network.
	Circuit = logic.Circuit
	// Builder constructs circuits incrementally.
	Builder = logic.Builder
	// GateType enumerates gate functions.
	GateType = logic.GateType
	// Fault is a single stuck-at fault ψ(X, B).
	Fault = atpg.Fault
	// TestResult is the outcome of test generation for one fault.
	TestResult = atpg.Result
	// Summary aggregates a full-circuit ATPG run.
	Summary = atpg.Summary
	// RunOptions control a full-circuit ATPG run (collapsing, fault
	// dropping, the random-pattern pre-phase, per-fault budget, retries).
	RunOptions = atpg.RunOptions
	// Engine generates tests fault by fault on a configurable worker pool.
	Engine = atpg.Engine
	// Formula is a CNF formula.
	Formula = cnf.Formula
	// Solver decides CNF satisfiability.
	Solver = sat.Solver
	// SolverStats is the per-solve search counter set (nodes, decisions,
	// sub-formula cache hits/misses/evictions/bytes, ...); it appears per
	// fault in TestResult.SolverStats and run-wide in Summary.SolverTotals.
	SolverStats = sat.Stats
)

// DefaultCacheLimit is the Caching solver's sub-formula cache bound in
// bytes when its CacheLimit is 0 (see NewCachingBounded).
const DefaultCacheLimit = sat.DefaultCacheLimit

// Random-pattern pre-phase parameters: DefaultRPTBatches is the standard
// RunOptions.RPTBatches cap on 64-pattern batches, and every run stops
// the phase early after DefaultRPTIdleStop consecutive batches with no
// new detections.
const (
	DefaultRPTBatches  = atpg.DefaultRPTBatches
	DefaultRPTIdleStop = atpg.DefaultRPTIdleStop
)

// DefaultGroupMax is the region-group size cap of incremental solving
// (RunOptions.GroupMax of 0): at most this many collapsed faults share
// one encoded region formula and one persistent solver instance.
const DefaultGroupMax = atpg.DefaultGroupMax

// Observability types: attach a Telemetry to RunOptions to get live
// metrics, a JSONL trace of run-level events and spans, and periodic
// progress callbacks out of an engine run; the per-fault records go to
// an EffortLog. All hooks are optional and nil-safe; a nil Telemetry (the
// default) costs one pointer check per fault.
type (
	// Telemetry bundles the engine's observability hooks.
	Telemetry = atpg.Telemetry
	// Progress is one snapshot of a running ATPG job (done/total counts,
	// coverage, ETA).
	Progress = atpg.Progress
	// PhaseTimes is the per-phase time breakdown of a Summary (CNF build,
	// SAT solve, fault simulation).
	PhaseTimes = atpg.PhaseTimes
	// EngineMetrics is the engine's counter/gauge/histogram set, registered
	// on a MetricsRegistry.
	EngineMetrics = atpg.Metrics
	// MetricsRegistry holds named metrics and renders them in Prometheus
	// text format.
	MetricsRegistry = obs.Registry
	// Trace is a JSONL event sink for the engine's run-level events
	// (fault-simulation flushes, random-pattern batches, learned-clause
	// budget shrinks),
	// span records and flight-recorder dumps.
	Trace = obs.Trace
	// MetricsServer serves /metrics, /debug/vars and /debug/pprof for a
	// registry.
	MetricsServer = obs.Server
	// SpanTracer emits hierarchical span records (run → phase → group or
	// rpt-batch → fault) into a Trace sink; wire one into Telemetry.Spans.
	SpanTracer = obs.Tracer
	// SpanContext identifies an in-flight span for parenting children.
	SpanContext = obs.SpanContext
	// FlightRing is the engine's always-on flight recorder: a fixed-size
	// lock-free ring of recent dispatch/solve/commit events, dumped on
	// panics and interrupts.
	FlightRing = obs.Ring
	// EffortLog is the append-only JSONL sink for per-fault effort
	// records (schema EffortSchema); wire one into RunOptions.EffortLog.
	EffortLog = atpg.EffortLog
	// EffortRecord joins one fault's structural features with the solver
	// effort its verdict took.
	EffortRecord = atpg.EffortRecord
	// EffortHeader is the first record of an effort log.
	EffortHeader = atpg.EffortHeader
	// FaultFeatures is the cheap structural feature vector of one fault
	// (fanout cone, sub-circuit gates, SCOAP, optional cut-width).
	FaultFeatures = atpg.FaultFeatures
)

// EffortSchema versions the effort-log record format.
const EffortSchema = atpg.EffortSchema

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewEngineMetrics registers the engine's metric set on reg. shards sizes
// the per-worker sharded counters; pass the engine's worker count (values
// < 1 are clamped to 1).
func NewEngineMetrics(reg *MetricsRegistry, shards int) *EngineMetrics {
	return atpg.NewMetrics(reg, shards)
}

// NewTrace wraps w in a JSONL trace sink. Close flushes (and closes w if
// it is an io.Closer).
func NewTrace(w io.Writer) *Trace { return obs.NewTrace(w) }

// CreateTrace creates path and returns a JSONL trace sink writing to it.
func CreateTrace(path string) (*Trace, error) { return obs.CreateTrace(path) }

// NewSpanTracer returns a span tracer emitting into sink.
func NewSpanTracer(sink *Trace) *SpanTracer { return obs.NewTracer(sink) }

// NewFlightRing returns a flight-recorder ring holding the most recent n
// events (rounded up to a power of two, minimum 16).
func NewFlightRing(n int) *FlightRing { return obs.NewRing(n) }

// NewEffortLog wraps w in a buffered effort-record sink.
func NewEffortLog(w io.Writer) *EffortLog { return atpg.NewEffortLog(w) }

// CreateEffortLog opens (truncating) an effort log file at path.
func CreateEffortLog(path string) (*EffortLog, error) { return atpg.CreateEffortLog(path) }

// DecodeEffortLog parses an effort-log stream into its header and
// records, tolerating a truncated final line.
func DecodeEffortLog(r io.Reader) (EffortHeader, []EffortRecord, error) {
	return atpg.DecodeEffortLog(r)
}

// ServeMetrics starts an HTTP server on addr (host:port, port 0 picks one)
// exposing reg on /metrics (Prometheus text format), expvar on /debug/vars
// and the pprof profiles on /debug/pprof/. Close it when the run ends.
func ServeMetrics(addr string, reg *MetricsRegistry) (*MetricsServer, error) {
	return obs.Serve(addr, reg)
}

// Gate type constants.
const (
	Input  = logic.Input
	Const0 = logic.Const0
	Const1 = logic.Const1
	Buf    = logic.Buf
	Not    = logic.Not
	And    = logic.And
	Or     = logic.Or
	Nand   = logic.Nand
	Nor    = logic.Nor
	Xor    = logic.Xor
	Xnor   = logic.Xnor
)

// Per-fault ATPG outcomes. Errored marks a fault whose per-fault
// pipeline panicked; the run isolates the panic (stack in
// TestResult.Stack) and continues.
const (
	Detected   = atpg.Detected
	Untestable = atpg.Untestable
	Aborted    = atpg.Aborted
	Errored    = atpg.Errored
)

// Resilience types: escalating retries for over-budget faults, and the
// crash-recovery checkpoint journal (see internal/checkpoint and the
// README's "Crash recovery & retries" section).
type (
	// RetryTier summarizes one escalation tier of the post-sweep retry
	// phase (Summary.Retries).
	RetryTier = atpg.RetryTier
	// ResumeState pre-applies verdicts replayed from a previous run's
	// journal (RunOptions.Resume).
	ResumeState = atpg.ResumeState
	// ResumeRPT restores a journaled random-pattern pre-phase outcome.
	ResumeRPT = atpg.ResumeRPT
	// JournalSink receives final fault verdicts as they are decided
	// (RunOptions.Journal); *CheckpointJournal implements it.
	JournalSink = atpg.JournalSink
	// CheckpointJournal is an append-only JSONL crash-recovery journal.
	CheckpointJournal = checkpoint.Journal
	// CheckpointState is the replayed content of a journal.
	CheckpointState = checkpoint.State
	// CheckpointHeader binds a journal to one exact run.
	CheckpointHeader = checkpoint.Header
	// CheckpointOptions configure journal durability (per-record fsync,
	// rotation threshold).
	CheckpointOptions = checkpoint.Options
)

// Retry-phase defaults (RunOptions.RetryTiers / RetryBackoff): three
// escalation tiers, each with four times the previous budget.
const (
	DefaultRetryTiers   = atpg.DefaultRetryTiers
	DefaultRetryBackoff = atpg.DefaultRetryBackoff
)

// OpenCheckpoint creates (or, with a prior Load result, continues) a
// crash-recovery journal; pass it as RunOptions.Journal.
func OpenCheckpoint(path string, hdr CheckpointHeader, prior *CheckpointState, opt CheckpointOptions) (*CheckpointJournal, error) {
	return checkpoint.New(path, hdr, prior, opt)
}

// LoadCheckpoint replays the journal at path, tolerating the truncated
// trailing record a hard kill can leave.
func LoadCheckpoint(path string) (*CheckpointState, error) { return checkpoint.Load(path) }

// CheckpointFingerprint hashes everything that determines a run's
// verdict and vector identity, for CheckpointHeader.FaultHash.
func CheckpointFingerprint(c *Circuit, faults []Fault, opt RunOptions) uint64 {
	return atpg.CheckpointFingerprint(c, faults, opt)
}

// NewBuilder returns an empty circuit builder.
func NewBuilder(name string) *Builder { return logic.NewBuilder(name) }

// ReadBench parses an ISCAS .bench netlist.
func ReadBench(r io.Reader, name string) (*Circuit, error) { return bench.Read(r, name) }

// WriteBench writes an ISCAS .bench netlist.
func WriteBench(w io.Writer, c *Circuit) error { return bench.Write(w, c) }

// ReadBLIF parses a combinational BLIF model.
func ReadBLIF(r io.Reader) (*Circuit, error) { return blif.Read(r) }

// WriteBLIF writes a combinational BLIF model.
func WriteBLIF(w io.Writer, c *Circuit) error { return blif.Write(w, c) }

// Decompose maps the circuit onto ≤k-input AND/OR gates with inversions —
// the paper's tech_decomp step (k = 3 in all its experiments).
func Decompose(c *Circuit, k int) (*Circuit, error) { return decomp.Decompose(c, k) }

// AllFaults enumerates both stuck-at faults on every net.
func AllFaults(c *Circuit) []Fault { return atpg.AllFaults(c) }

// CollapseFaults drops faults structurally equivalent to a fault on their
// reader's output net.
func CollapseFaults(c *Circuit, faults []Fault) []Fault { return atpg.Collapse(c, faults) }

// GenerateTest runs SAT-based test generation for one fault with the
// default (DPLL) solver and verifies any produced vector by simulation.
func GenerateTest(c *Circuit, f Fault) (TestResult, error) {
	eng := &atpg.Engine{VerifyTests: true}
	return eng.TestFault(c, f)
}

// RunATPG generates tests for every collapsed stuck-at fault in the
// classic TEGUS flow: equivalence + dominance collapsing, a seeded
// random-pattern pre-phase that fault-simulates away the easy faults,
// SAT-based generation for the survivors, and fault dropping of later
// faults covered by earlier vectors. It runs on GOMAXPROCS workers; use
// RunATPGParallel for explicit worker counts, budgets or cancellation.
func RunATPG(c *Circuit) (*Summary, error) {
	return RunATPGParallel(context.Background(), c, 0, 0)
}

// RunATPGParallel is RunATPG with explicit parallelism and robustness
// controls: workers fault-solving goroutines (0 = GOMAXPROCS), a
// per-fault SAT budget (0 = unlimited), and a context whose cancellation
// drains the run and returns the partial summary with ctx.Err().
// Summary.Results and Vectors come back in fault-list order regardless of
// worker completion order. Solving is incremental (region-grouped, learned
// clauses shared between a region's faults); run Engine.Run with
// RunOptions.GroupMax 1 yourself for the fresh-per-fault ablation.
func RunATPGParallel(ctx context.Context, c *Circuit, workers int, perFaultBudget time.Duration) (*Summary, error) {
	eng := &atpg.Engine{VerifyTests: true, Workers: workers}
	return eng.Run(ctx, c, atpg.RunOptions{
		Collapse:       true,
		Dominance:      true,
		DropDetected:   true,
		RPTBatches:     atpg.DefaultRPTBatches,
		Seed:           1,
		PerFaultBudget: perFaultBudget,
	})
}

// VerifyTest checks by simulation that the vector detects the fault.
func VerifyTest(c *Circuit, f Fault, vec []bool) bool { return atpg.VerifyTest(c, f, vec) }

// EncodeATPG builds the ATPG-SAT formula CIRCUIT-SAT(C_ψ^ATPG) for a
// fault: the instance class whose tractability the paper explains.
func EncodeATPG(c *Circuit, f Fault) (*Formula, error) {
	m, err := atpg.NewMiter(c, f)
	if err != nil {
		return nil, err
	}
	return m.Encode()
}

// EncodeCircuitSAT builds the CIRCUIT-SAT formula f(C) of Section 2.
func EncodeCircuitSAT(c *Circuit) (*Formula, error) { return cnf.FromCircuit(c, nil) }

// NewDPLL returns the production conflict-driven solver (the TEGUS role).
func NewDPLL() Solver { return &sat.DPLL{} }

// NewCaching returns the paper's Algorithm 1 — caching-based backtracking
// under the given static variable ordering (nil = index order). The
// sub-formula cache is bounded by DefaultCacheLimit; use NewCachingBounded
// to tune it.
func NewCaching(order []int) Solver { return &sat.Caching{Order: order} }

// NewCachingBounded is NewCaching with an explicit sub-formula cache
// memory bound in bytes per solver (0 = DefaultCacheLimit). A full
// cache evicts least-recently-referenced entries, trading pruning power
// for flat memory; results are unaffected.
func NewCachingBounded(order []int, cacheLimit int64) Solver {
	return &sat.Caching{Order: order, CacheLimit: cacheLimit}
}

// NewSimple returns plain backtracking under the given static ordering.
func NewSimple(order []int) Solver { return &sat.Simple{Order: order} }

// EstimateCutWidth estimates the minimum cut-width of the circuit
// (Definition 4.1) by min-cut linear arrangement and returns the witness
// node ordering. The ordering doubles as a variable ordering for the
// caching solver on f(C), realizing the Theorem 4.1 bound.
func EstimateCutWidth(c *Circuit) (int, []int) {
	return mla.EstimateCutWidth(hypergraph.FromCircuit(c), mla.Options{})
}

// FaultWidth is one Figure 8 datapoint: the size and estimated cut-width
// of the subcircuit C_ψ^sub relevant to a fault.
type FaultWidth = core.FaultWidth

// WidthProfile computes a FaultWidth point for every fault — the data
// behind the paper's Figure 8.
func WidthProfile(c *Circuit, faults []Fault) ([]FaultWidth, error) {
	return core.WidthProfile(c, faults, mla.Options{})
}

// Classification is the empirical log-bounded-width verdict of Definition
// 5.1: the fitted growth curves (best first) and whether the logarithmic
// family wins.
type Classification = core.Classification

// ClassifyWidthGrowth fits linear/logarithmic/power curves to a width
// profile and reports whether the circuit family looks log-bounded-width
// (and hence provably easy for ATPG, per Lemma 5.1).
func ClassifyWidthGrowth(points []FaultWidth) (Classification, error) {
	return core.ClassifyWidthGrowth(points)
}

// Theorem41Bound is the paper's running-time bound n·2^(2·k_fo·W) for
// Algorithm 1 on a CIRCUIT-SAT formula.
func Theorem41Bound(n, kfo, width int) float64 { return core.Theorem41Bound(n, kfo, width) }

// PolyATPGResult is the outcome of the provably width-bounded ATPG
// procedure.
type PolyATPGResult = core.PolyATPGResult

// GenerateTestBounded runs the paper's tractability argument as an
// algorithm (Lemma 5.1): MLA-order the circuit, derive the 2W+2 miter
// ordering of Lemma 4.2, and decide the instance with the caching-based
// backtracking solver. The result reports the widths and the Theorem 4.1
// node guarantee alongside the verdict — slower than GenerateTest's DPLL,
// but with a provable bound on log-bounded-width circuits.
func GenerateTestBounded(c *Circuit, f Fault) (*PolyATPGResult, error) {
	return core.PolyATPG(c, f, mla.Options{})
}
