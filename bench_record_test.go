package atpgeasy

// BENCH_atpg.json emission: benchmarks that call recordBench have their
// latest timing written to BENCH_atpg.json by TestMain after a `-bench`
// run, so perf regressions across the parallel engine and the telemetry
// hooks are diffable in review. A plain `go test` run records nothing and
// writes nothing.

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
)

// benchRecord is one row of BENCH_atpg.json.
type benchRecord struct {
	Name    string  `json:"name"`
	NsPerOp float64 `json:"ns_per_op"`
	Workers int     `json:"workers,omitempty"`
	// AllocsPerOp is filled by benchmarks that measure allocation counts
	// (the solver-cache A/B bench); 0 means not measured.
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	// SATCalls is filled by the end-to-end A/B benches that count SAT
	// solver invocations per run (the RPT pre-phase ablation). A pointer
	// so a measured zero — RPT detected every fault — still serializes,
	// while rows that do not measure it omit the field.
	SATCalls *int `json:"sat_calls,omitempty"`
	// Conflicts is filled by the incremental-CDCL A/B rows: total solver
	// conflicts over the whole run. A pointer so a measured zero — the
	// circuit never conflicted — still serializes.
	Conflicts *int64 `json:"conflicts,omitempty"`
	// SpeedupVsWorkers1 is filled post-merge on workers-N rows (N > 1)
	// whose benchmark family also has a workers-1 row: the ratio of the
	// workers-1 ns/op to this row's ns/op. cmd/scalecheck gates on it.
	SpeedupVsWorkers1 float64 `json:"speedup_vs_workers1,omitempty"`
	// CPUs is runtime.NumCPU() at record time, on rows with a worker
	// count: a speedup measured on a single-core box says nothing about
	// scaling, so consumers (cmd/scalecheck) skip rows with CPUs < 2.
	CPUs int `json:"cpus,omitempty"`
}

var benchRecords struct {
	sync.Mutex
	byName map[string]benchRecord
}

// recordBench stores the current ns/op for the running (sub-)benchmark.
// Call it at the end of the b.Run closure; the testing package invokes
// the closure several times with growing b.N, and the last (largest-N,
// most accurate) invocation wins.
func recordBench(b *testing.B, workers int) {
	recordBenchAllocs(b, workers, 0)
}

// recordBenchAllocs is recordBench for benchmarks that also measured an
// allocation count per operation (via testing.AllocsPerRun, outside the
// timed loop).
func recordBenchAllocs(b *testing.B, workers int, allocsPerOp float64) {
	record(b, benchRecord{Workers: workers, AllocsPerOp: allocsPerOp})
}

// recordBenchSAT is recordBench for end-to-end benchmarks that also
// counted SAT solver invocations per run — the RPT ablation's headline
// number.
func recordBenchSAT(b *testing.B, workers, satCalls int) {
	record(b, benchRecord{Workers: workers, SATCalls: &satCalls})
}

// recordBenchConflicts is recordBench for end-to-end benchmarks that
// also counted total solver conflicts per run — the incremental-CDCL
// ablation's headline number.
func recordBenchConflicts(b *testing.B, workers int, conflicts int64) {
	record(b, benchRecord{Workers: workers, Conflicts: &conflicts})
}

func record(b *testing.B, r benchRecord) {
	b.Helper()
	if b.N == 0 {
		return
	}
	r.Name = b.Name()
	r.NsPerOp = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	if r.Workers > 0 {
		r.CPUs = runtime.NumCPU()
	}
	benchRecords.Lock()
	defer benchRecords.Unlock()
	if benchRecords.byName == nil {
		benchRecords.byName = map[string]benchRecord{}
	}
	benchRecords.byName[r.Name] = r
}

// benchFamily splits a "<family>/workers-N" row name; ok is false for
// rows that are not part of a worker-scaling family.
func benchFamily(r benchRecord) (family string, ok bool) {
	if r.Workers <= 0 {
		return "", false
	}
	suffix := fmt.Sprintf("/workers-%d", r.Workers)
	if !strings.HasSuffix(r.Name, suffix) {
		return "", false
	}
	return strings.TrimSuffix(r.Name, suffix), true
}

// fillSpeedups computes SpeedupVsWorkers1 on every workers-N row (N > 1)
// whose family has a workers-1 baseline. Runs after the on-disk merge so
// a partial -bench run that only refreshed some rows still gets ratios
// against the surviving baseline.
func fillSpeedups(recs []benchRecord) {
	base := map[string]float64{}
	for _, r := range recs {
		if fam, ok := benchFamily(r); ok && r.Workers == 1 {
			base[fam] = r.NsPerOp
		}
	}
	for i := range recs {
		fam, ok := benchFamily(recs[i])
		if !ok || recs[i].Workers == 1 {
			continue
		}
		if b1, have := base[fam]; have && recs[i].NsPerOp > 0 {
			recs[i].SpeedupVsWorkers1 = b1 / recs[i].NsPerOp
		}
	}
}

func TestMain(m *testing.M) {
	code := m.Run()
	benchRecords.Lock()
	recs := make([]benchRecord, 0, len(benchRecords.byName))
	for _, r := range benchRecords.byName {
		recs = append(recs, r)
	}
	benchRecords.Unlock()
	if len(recs) > 0 {
		// Merge with any rows already on disk so a partial -bench run
		// (e.g. only the solver-cache benches) refreshes its own rows
		// without discarding the rest of the file.
		if old, err := os.ReadFile("BENCH_atpg.json"); err == nil {
			var prev []benchRecord
			if json.Unmarshal(old, &prev) == nil {
				fresh := make(map[string]bool, len(recs))
				for _, r := range recs {
					fresh[r.Name] = true
				}
				for _, r := range prev {
					if !fresh[r.Name] {
						recs = append(recs, r)
					}
				}
			}
		}
		fillSpeedups(recs)
		sort.Slice(recs, func(i, j int) bool { return recs[i].Name < recs[j].Name })
		buf, err := json.MarshalIndent(recs, "", "  ")
		if err == nil {
			buf = append(buf, '\n')
			err = os.WriteFile("BENCH_atpg.json", buf, 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: writing BENCH_atpg.json: %v\n", err)
			if code == 0 {
				code = 1
			}
		}
	}
	os.Exit(code)
}
