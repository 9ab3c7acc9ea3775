// Command scalecheck is the CI worker-scaling regression gate: it reads
// the committed BENCH_atpg.json, finds every benchmark family under
// -family that recorded both a workers-1 and a workers-4 row, recomputes
// the 1→4 speedup from the raw ns/op, and exits non-zero when any family
// falls below -min-speedup.
//
// The threshold is deliberately generous (default 1.25x, far under the
// ideal 4x): the gate exists to catch the engine regressing to flat
// scaling — the bug where every worker funnels through one mutex and
// four workers run no faster than one — not to pin an exact parallel
// efficiency, which varies with runner load.
//
// Rows measured on a single-CPU box (cpus < 2) are skipped with a note:
// a speedup measured without parallel hardware says nothing about
// scaling. CI runners have multiple cores, so the gate is live there.
//
// A second gate bounds the effort-log overhead: the
// BenchmarkEffortLogOverhead off/on pair must stay within
// -max-effort-overhead (default 1.03 — streaming per-fault effort
// records may cost at most 3%). Missing rows or single-CPU measurements
// are skipped with a note, like the scaling gate; -max-effort-overhead 0
// disables the gate.
//
// A third gate bounds incremental-solving regressions: every
// BenchmarkIncrementalCDCL fresh/incremental pair must keep the
// incremental ns/op within -max-incremental-regression of fresh
// (default 1.05). Unlike the scaling gate this is a same-machine
// single-worker ratio, so it is checked regardless of CPU count;
// -max-incremental-regression 0 disables it.
//
// Every enabled gate runs and prints its verdict, so one failing gate
// never hides another; scalecheck exits 1 if any of them failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
)

// row mirrors the BENCH_atpg.json fields scalecheck consumes; extra
// fields are ignored.
type row struct {
	Name    string  `json:"name"`
	NsPerOp float64 `json:"ns_per_op"`
	Workers int     `json:"workers"`
	CPUs    int     `json:"cpus"`
}

func main() {
	bench := flag.String("bench", "BENCH_atpg.json", "path to the benchmark record file")
	family := flag.String("family", "BenchmarkParallelATPG", "benchmark name prefix to gate on")
	minSpeedup := flag.Float64("min-speedup", 1.25, "minimum workers-1 / workers-4 ns ratio")
	effortFamily := flag.String("effort-family", "BenchmarkEffortLogOverhead", "off/on benchmark pair to gate effort-log overhead on")
	maxOverhead := flag.Float64("max-effort-overhead", 1.03, "maximum on/off ns ratio for the effort-log pair (0 = skip the gate)")
	incFamily := flag.String("incremental-family", "BenchmarkIncrementalCDCL", "fresh/incremental benchmark pairs to gate incremental solving on")
	maxIncremental := flag.Float64("max-incremental-regression", 1.05, "maximum incremental/fresh ns ratio per pair (0 = skip the gate)")
	flag.Parse()
	gates := []func(io.Writer) error{
		func(out io.Writer) error { return run(*bench, *family, *minSpeedup, out) },
	}
	if *maxOverhead > 0 {
		gates = append(gates, func(out io.Writer) error { return runOverhead(*bench, *effortFamily, *maxOverhead, out) })
	}
	if *maxIncremental > 0 {
		gates = append(gates, func(out io.Writer) error { return runIncremental(*bench, *incFamily, *maxIncremental, out) })
	}
	if checkAll(gates, os.Stdout, os.Stderr) > 0 {
		os.Exit(1)
	}
}

// checkAll runs every gate, each printing its verdict to out, and
// reports each failure on errOut; it returns how many gates failed.
func checkAll(gates []func(io.Writer) error, out, errOut io.Writer) int {
	failed := 0
	for _, gate := range gates {
		if err := gate(out); err != nil {
			fmt.Fprintf(errOut, "scalecheck: %v\n", err)
			failed++
		}
	}
	return failed
}

// loadRows reads and parses the benchmark record file.
func loadRows(benchPath string) ([]row, error) {
	buf, err := os.ReadFile(benchPath)
	if err != nil {
		return nil, err
	}
	var rows []row
	if err := json.Unmarshal(buf, &rows); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", benchPath, err)
	}
	return rows, nil
}

// runOverhead gates the effort-log overhead: the "<family>/on" row may
// cost at most maxRatio× the "<family>/off" row. Rows that are missing
// (the bench step did not run the pair) or measured on a single CPU are
// skipped with a note rather than failed — absent evidence is not a
// regression.
func runOverhead(benchPath, family string, maxRatio float64, out io.Writer) error {
	rows, err := loadRows(benchPath)
	if err != nil {
		return err
	}
	var off, on *row
	for i := range rows {
		switch rows[i].Name {
		case family + "/off":
			off = &rows[i]
		case family + "/on":
			on = &rows[i]
		}
	}
	switch {
	case off == nil || on == nil:
		fmt.Fprintf(out, "skip %s: off/on pair not recorded\n", family)
		return nil
	case off.CPUs < 2 || on.CPUs < 2:
		fmt.Fprintf(out, "skip %s: measured with %d CPU(s); overhead needs a parallel run\n",
			family, min(off.CPUs, on.CPUs))
		return nil
	case off.NsPerOp <= 0 || on.NsPerOp <= 0:
		return fmt.Errorf("%s: non-positive ns_per_op", family)
	}
	ratio := on.NsPerOp / off.NsPerOp
	if ratio > maxRatio {
		fmt.Fprintf(out, "FAIL %s: effort log costs %.1f%% (%.1fms -> %.1fms, cap %.1f%%)\n",
			family, 100*(ratio-1), off.NsPerOp/1e6, on.NsPerOp/1e6, 100*(maxRatio-1))
		return fmt.Errorf("effort-log overhead %.3fx exceeds %.3fx", ratio, maxRatio)
	}
	fmt.Fprintf(out, "ok   %s: effort log costs %.1f%% (%.1fms -> %.1fms, cap %.1f%%)\n",
		family, 100*(ratio-1), off.NsPerOp/1e6, on.NsPerOp/1e6, 100*(maxRatio-1))
	return nil
}

// runIncremental gates incremental solving: every "<family>/<circuit>"
// pair of "/fresh" and "/incremental" rows must keep incremental ns/op
// within maxRatio× fresh. The ratio compares two single-worker runs on
// the same machine, so a single-CPU measurement is as valid as any —
// there is no cpus skip. Missing pairs are skipped with a note; no pairs
// at all is an error only when at least one row under family exists
// (absent evidence is not a regression, a half-recorded pair is).
func runIncremental(benchPath, family string, maxRatio float64, out io.Writer) error {
	rows, err := loadRows(benchPath)
	if err != nil {
		return err
	}
	type pair struct {
		fresh, inc *row
	}
	pairs := map[string]*pair{}
	var order []string
	for i := range rows {
		name, ok := strings.CutPrefix(rows[i].Name, family+"/")
		if !ok {
			continue
		}
		var circ string
		var fresh bool
		switch {
		case strings.HasSuffix(name, "/fresh"):
			circ, fresh = strings.TrimSuffix(name, "/fresh"), true
		case strings.HasSuffix(name, "/incremental"):
			circ = strings.TrimSuffix(name, "/incremental")
		default:
			continue
		}
		p := pairs[circ]
		if p == nil {
			p = &pair{}
			pairs[circ] = p
			order = append(order, circ)
		}
		if fresh {
			p.fresh = &rows[i]
		} else {
			p.inc = &rows[i]
		}
	}
	if len(order) == 0 {
		fmt.Fprintf(out, "skip %s: no fresh/incremental pairs recorded\n", family)
		return nil
	}
	failed := 0
	for _, circ := range order {
		p := pairs[circ]
		if p.fresh == nil || p.inc == nil {
			return fmt.Errorf("%s/%s: half-recorded pair (fresh %v, incremental %v)",
				family, circ, p.fresh != nil, p.inc != nil)
		}
		if p.fresh.NsPerOp <= 0 || p.inc.NsPerOp <= 0 {
			return fmt.Errorf("%s/%s: non-positive ns_per_op", family, circ)
		}
		ratio := p.inc.NsPerOp / p.fresh.NsPerOp
		status := "ok"
		if ratio > maxRatio {
			status = "FAIL"
			failed++
		}
		fmt.Fprintf(out, "%-4s %s/%s: incremental %.2fx of fresh (%.1fms -> %.1fms, cap %.2fx)\n",
			status, family, circ, ratio, p.fresh.NsPerOp/1e6, p.inc.NsPerOp/1e6, maxRatio)
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d incremental pairs above %.2fx of fresh", failed, len(order), maxRatio)
	}
	return nil
}

func run(benchPath, family string, minSpeedup float64, out io.Writer) error {
	rows, err := loadRows(benchPath)
	if err != nil {
		return err
	}

	// Group "<fam>/workers-N" rows by fam, keeping the two endpoints the
	// gate compares.
	type endpoints struct {
		w1, w4 *row
	}
	fams := map[string]*endpoints{}
	var order []string
	for i := range rows {
		r := &rows[i]
		if !strings.HasPrefix(r.Name, family) {
			continue
		}
		suffix := fmt.Sprintf("/workers-%d", r.Workers)
		if (r.Workers != 1 && r.Workers != 4) || !strings.HasSuffix(r.Name, suffix) {
			continue
		}
		fam := strings.TrimSuffix(r.Name, suffix)
		e := fams[fam]
		if e == nil {
			e = &endpoints{}
			fams[fam] = e
			order = append(order, fam)
		}
		if r.Workers == 1 {
			e.w1 = r
		} else {
			e.w4 = r
		}
	}

	checked, skipped, failed := 0, 0, 0
	for _, fam := range order {
		e := fams[fam]
		if e.w1 == nil || e.w4 == nil {
			continue
		}
		if e.w1.CPUs < 2 || e.w4.CPUs < 2 {
			fmt.Fprintf(out, "skip %s: measured with %d CPU(s); scaling needs >= 2\n",
				fam, min(e.w1.CPUs, e.w4.CPUs))
			skipped++
			continue
		}
		if e.w1.NsPerOp <= 0 || e.w4.NsPerOp <= 0 {
			return fmt.Errorf("%s: non-positive ns_per_op", fam)
		}
		speedup := e.w1.NsPerOp / e.w4.NsPerOp
		checked++
		status := "ok"
		if speedup < minSpeedup {
			status = "FAIL"
			failed++
		}
		fmt.Fprintf(out, "%-4s %s: %.2fx at 4 workers (%.1fms -> %.1fms, floor %.2fx)\n",
			status, fam, speedup, e.w1.NsPerOp/1e6, e.w4.NsPerOp/1e6, minSpeedup)
	}

	if checked == 0 && skipped == 0 {
		return fmt.Errorf("no %q families with both workers-1 and workers-4 rows in %s — did the bench run record anything?", family, benchPath)
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d families below %.2fx speedup at 4 workers", failed, checked, minSpeedup)
	}
	return nil
}
