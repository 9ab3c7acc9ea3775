// Command benchmark is the repository's end-to-end benchmark. It runs one
// workload — a seeded, fixed list of .bench netlists — through the
// library's default ATPG flow or through the atpgd service, checks every
// returned vector set with an independent reference simulator, and prints
// the run's metrics as one JSON object on the last line of standard
// output.
//
// Usage, from the repository root (run.sh builds this package first):
//
//	bash benchmark/run.sh --workload redundant-logic --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 the workload runs once untraced and once with spans around
// every call into a layer, and the result carries the per-layer metrics.
// NOTES.md explains the workloads and what each metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// workloads maps each workload name to its runner.
var workloads = map[string]func(cfg runConfig) (*report, error){
	"redundant-logic":    runCLIWorkload,
	"resistant-datapath": runCLIWorkload,
	"daemon-mix":         runDaemonWorkload,
}

// runConfig is one invocation's parameters.
type runConfig struct {
	Workload string
	Seed     int64
	Seconds  int
	Trace    bool
	// TraceOut is where a traced run writes its spans as JSONL.
	TraceOut string
	// WorkDir holds the daemon's data directories; it is created inside
	// the checkout and removed when the run ends.
	WorkDir string
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what a workload runner returns: the result line plus the
// sample counts behind each percentile and median.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Samples names, for each median or percentile metric, how many
	// values it was taken over.
	Samples map[string]string `json:"-"`
	// Counts are the pooled verdict counts and Digest fingerprints every
	// output; both repeat exactly for a seed.
	Counts map[string]int `json:"-"`
	Digest string         `json:"-"`
	// Problems lists every failed check, printed to standard error.
	Problems []string `json:"-"`
}

func (r *report) set(name string, value float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]metric)
	}
	r.Metrics[name] = metric{Value: value, Unit: unit}
}

func (r *report) sample(name, format string, args ...any) {
	if r.Samples == nil {
		r.Samples = make(map[string]string)
	}
	r.Samples[name] = fmt.Sprintf(format, args...)
}

func (r *report) fail(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

func main() {
	var cfg runConfig
	var trace int
	flag.StringVar(&cfg.Workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&cfg.Seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.IntVar(&cfg.Seconds, "seconds", 20, "nominal measured seconds; sizes the input list (not a time box)")
	flag.IntVar(&trace, "trace", 0, "1 = also run with spans and report the per-layer metrics")
	flag.Parse()

	run, ok := workloads[cfg.Workload]
	if !ok {
		fatalf("unknown --workload %q (want one of %s)", cfg.Workload, strings.Join(workloadNames(), ", "))
	}
	if cfg.Seconds < 1 {
		fatalf("--seconds must be at least 1")
	}
	if trace != 0 && trace != 1 {
		fatalf("--trace must be 0 or 1")
	}
	cfg.Trace = trace == 1
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fatalf("%v", err)
	}
	cfg.TraceOut = filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.jsonl", cfg.Workload, cfg.Seed))
	work, err := os.MkdirTemp(".bench_build", "work-")
	if err != nil {
		fatalf("%v", err)
	}
	cfg.WorkDir = work

	printJSONLine(map[string]any{"header": runHeader(cfg)})
	rep, err := run(cfg)
	if rmErr := os.RemoveAll(work); rmErr != nil && err == nil {
		err = rmErr
	}
	if err != nil {
		fatalf("%s: %v", cfg.Workload, err)
	}
	for _, p := range rep.Problems {
		fmt.Fprintf(os.Stderr, "benchmark: check failed: %s\n", p)
	}
	if cfg.Trace {
		rep.complete(perLayer)
	} else {
		rep.complete(endToEnd)
	}
	printJSONLine(map[string]any{"summary": map[string]any{
		"samples": rep.Samples, "counts": rep.Counts, "outputs_sha256": rep.Digest,
	}})
	printJSONLine(rep)
}

// runHeader records what produced the numbers: seed, source identity and
// the CPU the run could use.
func runHeader(cfg runConfig) map[string]any {
	return map[string]any{
		"workload":      cfg.Workload,
		"seed":          cfg.Seed,
		"seconds":       cfg.Seconds,
		"trace":         cfg.Trace,
		"commit":        commit(),
		"source_sha256": sourceDigest("."),
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go":            runtime.Version(),
	}
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func printJSONLine(v any) {
	data, err := json.Marshal(v)
	if err != nil {
		fatalf("encode output: %v", err)
	}
	fmt.Println(string(data))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(1)
}
