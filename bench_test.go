package atpgeasy

// One testing.B benchmark per reproduced table/figure of "Why is ATPG
// Easy?" plus the ablation benches DESIGN.md calls out. Benchmarks run the
// quick-scale experiment configurations; `cmd/experiments` runs the
// full-scale versions. Regenerate everything with:
//
//	go test -bench=. -benchmem ./...

import (
	"context"
	"io"
	"reflect"
	"testing"

	"atpgeasy/internal/atpg"
	"atpgeasy/internal/cnf"
	"atpgeasy/internal/experiments"
	"atpgeasy/internal/faultsim"
	"atpgeasy/internal/gen"
	"atpgeasy/internal/hypergraph"
	"atpgeasy/internal/mla"
	"atpgeasy/internal/obs"
	"atpgeasy/internal/partition"
	"atpgeasy/internal/sat"
)

func benchCfg(seed int64) experiments.Config {
	return experiments.Config{Quick: true, Seed: seed}
}

// BenchmarkFigure1ATPG regenerates Figure 1: per-fault SAT solving over
// the benchmark suites, time vs. instance size.
func BenchmarkFigure1ATPG(b *testing.B) {
	cfg := benchCfg(1)
	cfg.MaxFaultsPerCircuit = 20
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure1(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.FracUnder10ms < 0.9 {
			b.Fatalf("fast fraction %.2f below the paper's 0.9", res.FracUnder10ms)
		}
	}
}

// BenchmarkFigure8MCNC regenerates Figure 8(a): per-fault cut-width of
// C_ψ^sub over the MCNC91-like suite.
func BenchmarkFigure8MCNC(b *testing.B) {
	cfg := benchCfg(2)
	cfg.MaxFaultsPerCircuit = 8
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure8(cfg, experiments.SuiteMCNC); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure8ISCAS regenerates Figure 8(b) on the ISCAS85-like suite.
func BenchmarkFigure8ISCAS(b *testing.B) {
	cfg := benchCfg(3)
	cfg.MaxFaultsPerCircuit = 8
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure8(cfg, experiments.SuiteISCAS); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGeneratedCutwidth regenerates the Section 5.2.3 generated-
// circuit width study.
func BenchmarkGeneratedCutwidth(b *testing.B) {
	cfg := benchCfg(4)
	cfg.MaxFaultsPerCircuit = 4
	for i := 0; i < b.N; i++ {
		if _, err := experiments.GeneratedStudy(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWorkedExample regenerates Figures 4–7 (the Section 4 worked
// example).
func BenchmarkWorkedExample(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.WorkedExample(benchCfg(5)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQHornStudy regenerates the Section 3.1 class-membership table.
func BenchmarkQHornStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.QHornStudy(benchCfg(6)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAvgTimeStudy regenerates the Section 3.3 parameterization.
func BenchmarkAvgTimeStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AvgTimeStudy(benchCfg(7)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBDDStudy regenerates the Section 6 bound comparison.
func BenchmarkBDDStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.BDDStudy(benchCfg(8)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCachingVsSimple is the DESIGN.md ablation: the sub-formula
// cache against plain backtracking on the same instances and ordering.
func BenchmarkCachingVsSimple(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.CachingAblation(benchCfg(9)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOrderingAblation isolates ordering quality: the caching solver
// on one CIRCUIT-SAT instance under the MLA ordering vs. a topological
// ordering.
func BenchmarkOrderingAblation(b *testing.B) {
	c := gen.CellularArray1D(8)
	f, err := cnf.FromCircuit(c, nil)
	if err != nil {
		b.Fatal(err)
	}
	g := hypergraph.FromCircuit(c)
	_, mlaOrder := mla.EstimateCutWidth(g, mla.Options{})
	topo := append([]int(nil), c.TopoOrder()...)
	b.Run("mla-order", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if s := (&sat.Caching{Order: mlaOrder}).Solve(f); s.Status == sat.Unknown {
				b.Fatal("aborted")
			}
		}
	})
	b.Run("topo-order", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if s := (&sat.Caching{Order: topo}).Solve(f); s.Status == sat.Unknown {
				b.Fatal("aborted")
			}
		}
	})
}

// BenchmarkFMRestarts measures the partitioner's quality/time knob that
// backs every cut-width estimate.
func BenchmarkFMRestarts(b *testing.B) {
	c := gen.Random(gen.RandomParams{Inputs: 40, Gates: 1200, Seed: 17})
	g := hypergraph.FromCircuit(c)
	for _, restarts := range []int{1, 4, 8} {
		restarts := restarts
		b.Run(map[int]string{1: "restarts-1", 4: "restarts-4", 8: "restarts-8"}[restarts], func(b *testing.B) {
			cut := 0
			for i := 0; i < b.N; i++ {
				r := partition.Bipartition(g, partition.Options{Restarts: restarts, Seed: int64(i)})
				cut = r.Cut
			}
			b.ReportMetric(float64(cut), "cut")
		})
	}
}

// BenchmarkFaultCollapsing measures the instance-count reduction of the
// collapsing + fault-dropping flow on the Figure 1 workload.
func BenchmarkFaultCollapsing(b *testing.B) {
	c := gen.ALU(8)
	eng := &atpg.Engine{}
	b.Run("plain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := eng.Run(context.Background(), c, atpg.RunOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("collapse+drop", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := eng.Run(context.Background(), c, atpg.RunOptions{Collapse: true, DropDetected: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkParallelATPG measures worker scaling on a full collapse+drop
// run (wall-clock; summed SAT time is worker-count invariant). Two
// workloads large enough for per-fault solves to dominate dispatch:
// mult8 (deep multiplier cones, uneven effort) and cla32 (wide, shallow,
// drop-heavy). The workers-2/4 cases also assert the run is bit-for-bit
// identical to workers-1 — same vectors, same verdict counts — which is
// the determinism contract the speculative-commit dispatcher guarantees.
func BenchmarkParallelATPG(b *testing.B) {
	for _, tc := range []struct {
		name string
		c    *Circuit
	}{
		{"mult8", gen.ArrayMultiplier(8)},
		{"cla32", gen.CarryLookaheadAdder(32)},
	} {
		var baseVecs [][]bool
		var baseDet, baseDrop int
		for _, workers := range []int{1, 2, 4} {
			workers := workers
			b.Run(tc.name+"/"+map[int]string{1: "workers-1", 2: "workers-2", 4: "workers-4"}[workers], func(b *testing.B) {
				eng := &atpg.Engine{Workers: workers}
				var sum *atpg.Summary
				for i := 0; i < b.N; i++ {
					s, err := eng.Run(context.Background(), tc.c, atpg.RunOptions{Collapse: true, DropDetected: true})
					if err != nil {
						b.Fatal(err)
					}
					if s.Coverage() != 1 {
						b.Fatalf("coverage %v", s.Coverage())
					}
					sum = s
				}
				if workers == 1 {
					baseVecs, baseDet, baseDrop = sum.Vectors, sum.Detected, sum.DroppedByFaultSim
				} else if baseVecs != nil { // workers-1 may be filtered out by -bench
					if sum.Detected != baseDet || sum.DroppedByFaultSim != baseDrop {
						b.Fatalf("workers-%d verdicts (det %d, dropped %d) differ from workers-1 (det %d, dropped %d)",
							workers, sum.Detected, sum.DroppedByFaultSim, baseDet, baseDrop)
					}
					if !reflect.DeepEqual(sum.Vectors, baseVecs) {
						b.Fatalf("workers-%d vectors differ from workers-1", workers)
					}
				}
				recordBench(b, workers)
			})
		}
	}
}

// BenchmarkTelemetryOverhead pits a telemetry-free parallel run against
// the same run with the metrics registry and a JSONL trace attached. The
// "off" case still records every span in the run's private flight
// recorder (a few atomics per span, no writes); the instrumented case
// also writes each span as a JSONL line and shows what full
// observability costs.
func BenchmarkTelemetryOverhead(b *testing.B) {
	c := gen.ArrayMultiplier(6)
	const workers = 4
	run := func(b *testing.B, tel *atpg.Telemetry) {
		eng := &atpg.Engine{Workers: workers}
		for i := 0; i < b.N; i++ {
			sum, err := eng.Run(context.Background(), c, atpg.RunOptions{
				Collapse: true, DropDetected: true, Telemetry: tel,
			})
			if err != nil {
				b.Fatal(err)
			}
			if sum.Coverage() != 1 {
				b.Fatalf("coverage %v", sum.Coverage())
			}
		}
	}
	b.Run("off", func(b *testing.B) {
		run(b, nil)
		recordBench(b, workers)
	})
	b.Run("metrics+trace", func(b *testing.B) {
		tel := &atpg.Telemetry{
			Metrics: atpg.NewMetrics(obs.NewRegistry()),
			Trace:   obs.NewTrace(io.Discard),
		}
		run(b, tel)
		recordBench(b, workers)
		if err := tel.Trace.Close(); err != nil {
			b.Fatal(err)
		}
	})
}

// BenchmarkEffortLogOverhead pits an effort-log-free parallel run
// against the same run streaming one structured record per fault (with
// the up-front feature extraction that implies). The disabled case is a
// single nil check per fault; the enabled case must stay within a few
// percent — cmd/scalecheck gates the ratio at 3%.
func BenchmarkEffortLogOverhead(b *testing.B) {
	c := gen.ArrayMultiplier(6)
	const workers = 4
	run := func(b *testing.B, makeLog func() *atpg.EffortLog) {
		eng := &atpg.Engine{Workers: workers}
		for i := 0; i < b.N; i++ {
			log := makeLog()
			sum, err := eng.Run(context.Background(), c, atpg.RunOptions{
				Collapse: true, DropDetected: true, EffortLog: log,
			})
			if err != nil {
				b.Fatal(err)
			}
			if sum.Coverage() != 1 {
				b.Fatalf("coverage %v", sum.Coverage())
			}
			if log != nil {
				if log.Records() == 0 {
					b.Fatal("effort log stayed empty")
				}
				if err := log.Close(); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("off", func(b *testing.B) {
		run(b, func() *atpg.EffortLog { return nil })
		recordBench(b, workers)
	})
	b.Run("on", func(b *testing.B) {
		run(b, func() *atpg.EffortLog { return atpg.NewEffortLog(io.Discard) })
		recordBench(b, workers)
	})
}

// BenchmarkCachingSolver is the tentpole A/B: Algorithm 1 on a log-width
// ATPG miter under the MLA ordering, with the cache keyed two ways —
// exact byte keys rebuilt per node (the old scheme, kept as VerifyKeys
// mode) and the incremental 128-bit digest. The committed BENCH_atpg.json
// rows must show hashed ≥2× faster and ≥10× fewer allocations than
// exact-key.
func BenchmarkCachingSolver(b *testing.B) {
	c := gen.ParityTree(48)
	faults := atpg.Collapse(c, atpg.AllFaults(c))
	m, err := atpg.NewMiter(c, faults[len(faults)/2])
	if err != nil {
		b.Fatal(err)
	}
	f, err := m.Encode()
	if err != nil {
		b.Fatal(err)
	}
	g := hypergraph.FromCircuit(m.Circuit)
	_, order := mla.EstimateCutWidth(g, mla.Options{Partition: partition.Options{Seed: 1}})

	run := func(b *testing.B, solve func() sat.Solution) {
		b.Helper()
		allocs := testing.AllocsPerRun(1, func() { solve() })
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if s := solve(); s.Status == sat.Unknown {
				b.Fatal("aborted")
			}
		}
		recordBenchAllocs(b, 1, allocs)
	}
	b.Run("exact-key", func(b *testing.B) {
		s := &sat.Caching{Order: order, VerifyKeys: true}
		run(b, func() sat.Solution { return s.Solve(f) })
	})
	b.Run("hashed", func(b *testing.B) {
		s := &sat.Caching{Order: order}
		run(b, func() sat.Solution { return s.Solve(f) })
	})
}

// BenchmarkRPTPhase is the tentpole A/B: the full engine run with and
// without the random-pattern pre-phase, at equal coverage. The committed
// BENCH_atpg.json rows must show the rpt-on case issuing ≤50% of the
// rpt-off case's SAT solver calls (sat_calls) on every circuit.
func BenchmarkRPTPhase(b *testing.B) {
	const workers = 2
	for _, tc := range []struct {
		name string
		c    func() *Circuit
	}{
		{"cla8", func() *Circuit { return gen.CarryLookaheadAdder(8) }},
		{"mult5", func() *Circuit { return gen.ArrayMultiplier(5) }},
	} {
		c := tc.c()
		base := atpg.RunOptions{Collapse: true, Dominance: true, DropDetected: true, Seed: 11}
		run := func(b *testing.B, opt atpg.RunOptions) (calls int, cov float64) {
			b.Helper()
			eng := &atpg.Engine{Workers: workers}
			for i := 0; i < b.N; i++ {
				sum, err := eng.Run(context.Background(), c, opt)
				if err != nil {
					b.Fatal(err)
				}
				calls, cov = len(sum.Results), sum.Coverage()
			}
			return calls, cov
		}
		var callsOff int
		var covOff float64
		b.Run(tc.name+"/rpt-off", func(b *testing.B) {
			callsOff, covOff = run(b, base)
			recordBenchSAT(b, workers, callsOff)
		})
		b.Run(tc.name+"/rpt-on", func(b *testing.B) {
			opt := base
			opt.RPTBatches = atpg.DefaultRPTBatches
			callsOn, covOn := run(b, opt)
			if callsOff > 0 { // rpt-off may be filtered out by -bench
				if covOn != covOff {
					b.Fatalf("coverage %v with RPT, %v without", covOn, covOff)
				}
				if callsOn*2 > callsOff {
					b.Fatalf("RPT left %d of %d SAT calls (> 50%%)", callsOn, callsOff)
				}
			}
			recordBenchSAT(b, workers, callsOn)
		})
	}
}

// BenchmarkIncrementalCDCL is the tentpole A/B: region-grouped
// incremental solving — one persistent CDCL instance per worker, learned
// clauses alive across a fanout region's faults — against a fresh
// instance per fault (GroupMax 1: cold Load, nothing retained) on the
// same engine path. Both runs produce byte-identical vectors and solve
// the identical fault set (RPT and dropping off, one worker), so the
// rows are a pure knowledge-reuse comparison: ns/op is the full run,
// conflicts the deterministic total search. cmd/scalecheck gates the
// incremental/fresh ns ratio at 1.05; the committed rows must also show
// no conflict increase.
func BenchmarkIncrementalCDCL(b *testing.B) {
	for _, tc := range []struct {
		name string
		c    *Circuit
	}{
		{"mult16", gen.ArrayMultiplier(16)},
		{"rand200", gen.Random(gen.RandomParams{Inputs: 18, Gates: 200, Seed: 1})},
	} {
		run := func(b *testing.B, groupMax int) (conflicts int64) {
			b.Helper()
			eng := &atpg.Engine{Workers: 1}
			for i := 0; i < b.N; i++ {
				sum, err := eng.Run(context.Background(), tc.c, atpg.RunOptions{
					Collapse: true, GroupMax: groupMax,
				})
				if err != nil {
					b.Fatal(err)
				}
				if sum.Aborted != 0 || sum.Errors != 0 {
					b.Fatalf("aborted %d, errors %d", sum.Aborted, sum.Errors)
				}
				conflicts = sum.SolverTotals.Conflicts
			}
			b.ReportMetric(float64(conflicts), "conflicts")
			return conflicts
		}
		var freshConflicts int64
		b.Run(tc.name+"/fresh", func(b *testing.B) {
			freshConflicts = run(b, 1)
			recordBenchConflicts(b, 1, freshConflicts)
		})
		b.Run(tc.name+"/incremental", func(b *testing.B) {
			conflicts := run(b, 0)
			if freshConflicts > 0 && conflicts > freshConflicts { // fresh may be filtered out by -bench
				b.Fatalf("retention cost search: %d conflicts incremental, %d fresh", conflicts, freshConflicts)
			}
			recordBenchConflicts(b, 1, conflicts)
		})
	}
}

// BenchmarkEventDrivenFaultSim pits the event-driven simulator (fanout
// cone only, lazy good-value reads) against the brute-force full-circuit
// re-simulation it replaced, plus the early-exit query the fault-dropping
// path uses.
func BenchmarkEventDrivenFaultSim(b *testing.B) {
	c := gen.CarryLookaheadAdder(32)
	vecs := make([][]bool, 64)
	for p := range vecs {
		vecs[p] = make([]bool, len(c.Inputs))
		for i := range vecs[p] {
			vecs[p][i] = (p+i)%3 == 0
		}
	}
	words, err := faultsim.PackPatterns(c, vecs)
	if err != nil {
		b.Fatal(err)
	}
	sim, err := faultsim.NewSimulator(c, words, 64)
	if err != nil {
		b.Fatal(err)
	}
	faults := atpg.AllFaults(c)
	b.Run("event-driven", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			f := faults[i%len(faults)]
			sim.Detects(f.Net, f.StuckAt)
		}
		recordBench(b, 1)
	})
	b.Run("early-exit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			f := faults[i%len(faults)]
			sim.DetectsAny(f.Net, f.StuckAt)
		}
		recordBench(b, 1)
	})
	b.Run("full-resim", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			f := faults[i%len(faults)]
			faultsim.ReferenceDetects(c, words, 64, f.Net, f.StuckAt)
		}
		recordBench(b, 1)
	})
}

// BenchmarkDPLLSolve is a micro-benchmark of the production solver on one
// mid-size ATPG-SAT instance.
func BenchmarkDPLLSolve(b *testing.B) {
	c := gen.ArrayMultiplier(6)
	faults := atpg.Collapse(c, atpg.AllFaults(c))
	m, err := atpg.NewMiter(c, faults[len(faults)/2])
	if err != nil {
		b.Fatal(err)
	}
	f, err := m.Encode()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := (&sat.DPLL{}).Solve(f); s.Status == sat.Unknown {
			b.Fatal("aborted")
		}
	}
}

// BenchmarkFaultSim is a micro-benchmark of the 64-way parallel fault
// simulator.
func BenchmarkFaultSim(b *testing.B) {
	c := gen.CarryLookaheadAdder(32)
	vecs := make([][]bool, 64)
	for p := range vecs {
		vecs[p] = make([]bool, len(c.Inputs))
		for i := range vecs[p] {
			vecs[p][i] = (p+i)%3 == 0
		}
	}
	words, err := faultsim.PackPatterns(c, vecs)
	if err != nil {
		b.Fatal(err)
	}
	sim, err := faultsim.NewSimulator(c, words, 64)
	if err != nil {
		b.Fatal(err)
	}
	faults := atpg.AllFaults(c)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := faults[i%len(faults)]
		sim.Detects(f.Net, f.StuckAt)
	}
}

// BenchmarkMLA is a micro-benchmark of the width estimator on a mid-size
// circuit.
func BenchmarkMLA(b *testing.B) {
	c := gen.Random(gen.RandomParams{Inputs: 30, Gates: 600, Seed: 23})
	g := hypergraph.FromCircuit(c)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mla.EstimateCutWidth(g, mla.Options{Partition: partition.Options{Seed: int64(i), Restarts: 2}})
	}
}

// BenchmarkSimulate64 measures the bit-parallel simulator against the
// scalar one (64 patterns per call vs. 1).
func BenchmarkSimulate64(b *testing.B) {
	c := gen.ArrayMultiplier(8)
	words := make([]uint64, len(c.Inputs))
	for i := range words {
		words[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	scalar := make([]bool, len(c.Inputs))
	b.Run("parallel64", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c.Simulate64(words)
		}
	})
	b.Run("scalar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c.Simulate(scalar)
		}
	})
}
