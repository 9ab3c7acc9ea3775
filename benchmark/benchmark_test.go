package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"atpgeasy/internal/atpg"
	"atpgeasy/internal/bench"
	"atpgeasy/internal/gen"
	"atpgeasy/internal/logic"
)

func TestSameSeedSameInputs(t *testing.T) {
	for _, w := range workloadNames() {
		a, err := makeInputs(w, 7, 1)
		if err != nil {
			t.Fatal(err)
		}
		b, err := makeInputs(w, 7, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("%s: %d vs %d netlists", w, len(a), len(b))
		}
		for i := range a {
			if a[i].Name != b[i].Name || !bytes.Equal(a[i].Bench, b[i].Bench) {
				t.Fatalf("%s: netlist %d differs between two generations of one seed", w, i)
			}
		}
	}
}

func TestDifferentSeedDifferentInputs(t *testing.T) {
	for _, w := range workloadNames() {
		a, err := makeInputs(w, 7, 1)
		if err != nil {
			t.Fatal(err)
		}
		b, err := makeInputs(w, 8, 1)
		if err != nil {
			t.Fatal(err)
		}
		same := len(a) == len(b)
		for i := 0; same && i < len(a); i++ {
			same = bytes.Equal(a[i].Bench, b[i].Bench)
		}
		if same {
			t.Errorf("%s: seeds 7 and 8 generate the same netlists", w)
		}
	}
}

func TestInputsScaleWithSeconds(t *testing.T) {
	for _, w := range workloadNames() {
		short, _ := makeInputs(w, 1, 1)
		long, _ := makeInputs(w, 1, 40)
		if len(long) <= len(short) {
			t.Errorf("%s: %d netlists at 40 s, %d at 1 s", w, len(long), len(short))
		}
	}
}

// smallFlowInputs is a short CLI-flow list: the two smallest
// redundant-logic netlists and a 16-bit comparator.
func smallFlowInputs(t *testing.T, seed int64) []netlist {
	t.Helper()
	nls, err := makeInputs("redundant-logic", seed, 1)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := bench.Write(&b, gen.Comparator(16)); err != nil {
		t.Fatal(err)
	}
	return append(nls[:2], netlist{Name: "cmp16", Bench: b.Bytes()})
}

func TestFlowRunsRepeatExactly(t *testing.T) {
	nls := smallFlowInputs(t, 3)
	ctx := context.Background()
	a := runFlowPass(ctx, nls, nil, true)
	b := runFlowPass(ctx, nls, nil, false)
	if a.out.failed != 0 {
		t.Fatalf("%d netlists failed", a.out.failed)
	}
	if a.out.counts != b.out.counts || a.out.digest != b.out.digest {
		t.Fatalf("two runs of one seed differ: %+v vs %+v", a.out.counts, b.out.counts)
	}
	if a.out.counts.untestable == 0 || a.out.counts.vectors == 0 {
		t.Fatalf("degenerate outcome %+v", a.out.counts)
	}
	rep := &report{}
	if failed := checkFlowPass(rep, nls, a); failed != 0 {
		t.Fatalf("output check failed: %v", rep.Problems)
	}
}

func TestDaemonRunsRepeatExactly(t *testing.T) {
	nls, err := makeInputs("daemon-mix", 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	nls = nls[:24]
	ctx := context.Background()
	tr := newTracer()
	var outs []passOutcome
	for _, pt := range []*tracer{nil, tr} {
		p, err := runDaemonPass(ctx, t.TempDir(), nls, pt)
		if p != nil {
			if serr := p.srv.Shutdown(ctx); serr != nil {
				t.Error(serr)
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		rep := &report{}
		out := checkDaemonPass(rep, p, pt, true)
		if out.failed != 0 {
			t.Fatalf("%d jobs failed: %v", out.failed, rep.Problems)
		}
		outs = append(outs, out)
	}
	if outs[0].counts != outs[1].counts || outs[0].digest != outs[1].digest {
		t.Fatalf("two daemon runs of one seed differ: %+v vs %+v", outs[0].counts, outs[1].counts)
	}
	requireSpans(t, tr, "job", "admit", "events", "queue", "engine", "fetch", "probe", "parse", "decompose", "collapse")
}

func TestFlowTraceCoversLayers(t *testing.T) {
	tr := newTracer()
	p := runFlowPass(context.Background(), smallFlowInputs(t, 3), tr, false)
	if p.out.failed != 0 {
		t.Fatalf("%d netlists failed", p.out.failed)
	}
	requireSpans(t, tr, "netlist", "parse", "decompose", "engine", "rpt", "build", "solve", "faultsim", "probe", "collapse")
}

// requireSpans finishes tr and requires a span of every name, each group
// to hold one root, and every span to close within its parent's group.
func requireSpans(t *testing.T, tr *tracer, names ...string) {
	t.Helper()
	totals, err := tr.finish(filepath.Join(t.TempDir(), "spans.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		if _, ok := totals[n]; !ok {
			t.Errorf("no %q span", n)
		}
	}
	for _, s := range tr.spans {
		if s.EndNS < s.StartNS || s.SelfNS < 0 {
			t.Errorf("span %+v has a negative duration or self time", s)
		}
		if s.Parent != 0 && tr.spans[s.Parent-1].Group != s.Group {
			t.Errorf("span %d (%s) is in group %q, its parent in %q", s.ID, s.Name, s.Group, tr.spans[s.Parent-1].Group)
		}
	}
}

// checkedFlow runs the default flow on one netlist and returns the
// circuit, its collapsed faults and the claim, which must pass the check.
func checkedFlow(t *testing.T, nl netlist) (*logic.Circuit, []atpg.Fault, claim) {
	t.Helper()
	r := runFlow(context.Background(), nl, nil)
	if r.err != nil {
		t.Fatal(r.err)
	}
	cl := flowClaim(r.sum)
	faults := collapsedFaults(r.circuit)
	if err := checkClaim(r.circuit, faults, cl); err != nil {
		t.Fatalf("%s: check fails on the engine's own result: %v", nl.Name, err)
	}
	return r.circuit, faults, cl
}

func countDetected(t *testing.T, c *logic.Circuit, faults []atpg.Fault, vectors [][]bool) int {
	t.Helper()
	batches, err := packVectors(len(c.Inputs), vectors)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, d := range referenceDetected(c, faults, batches) {
		if d {
			n++
		}
	}
	return n
}

func cloneVectors(vs [][]bool) [][]bool {
	out := make([][]bool, len(vs))
	for i, v := range vs {
		out[i] = append([]bool(nil), v...)
	}
	return out
}

func TestCheckCatchesRemovedVector(t *testing.T) {
	for _, nl := range smallFlowInputs(t, 3) {
		c, faults, cl := checkedFlow(t, nl)
		caught := false
		for k := range cl.Vectors {
			bad := cl
			bad.Vectors = append(cloneVectors(cl.Vectors[:k]), cl.Vectors[k+1:]...)
			if countDetected(t, c, faults, bad.Vectors) == cl.Detected {
				continue // another vector covers everything this one did
			}
			if err := checkClaim(c, faults, bad); err == nil {
				t.Fatalf("%s: check passed with vector %d removed", nl.Name, k)
			}
			caught = true
			break
		}
		if !caught {
			t.Fatalf("%s: no vector is essential", nl.Name)
		}
	}
}

func TestCheckCatchesFlippedBit(t *testing.T) {
	for _, nl := range smallFlowInputs(t, 3) {
		c, faults, cl := checkedFlow(t, nl)
		caught := false
		for k := 0; k < len(cl.Vectors) && !caught; k++ {
			for b := range cl.Vectors[k] {
				bad := cl
				bad.Vectors = cloneVectors(cl.Vectors)
				bad.Vectors[k][b] = !bad.Vectors[k][b]
				if countDetected(t, c, faults, bad.Vectors) >= cl.Detected {
					continue // the flip loses no claimed fault
				}
				if err := checkClaim(c, faults, bad); err == nil {
					t.Fatalf("%s: check passed with bit %d of vector %d flipped", nl.Name, b, k)
				}
				caught = true
				break
			}
		}
		if !caught {
			t.Fatalf("%s: no bit flip loses a claimed fault", nl.Name)
		}
	}
}

func TestCheckCatchesDetectedFaultReportedUntestable(t *testing.T) {
	for _, nl := range smallFlowInputs(t, 3) {
		c, faults, cl := checkedFlow(t, nl)
		batches, err := packVectors(len(c.Inputs), cl.Vectors)
		if err != nil {
			t.Fatal(err)
		}
		detected := referenceDetected(c, faults, batches)
		i := 0
		for i < len(faults) && !detected[i] {
			i++
		}
		if i == len(faults) {
			t.Fatalf("%s: nothing detected", nl.Name)
		}
		bad := cl
		bad.Untestable = append(append([]atpg.Fault(nil), cl.Untestable...), faults[i])
		bad.UntestableCount++
		if err := checkClaim(c, faults, bad); err == nil {
			t.Fatalf("%s: check passed with detected fault %s reported untestable", nl.Name, faults[i])
		}
		if err := checkFlowClaim(nl, bad); err == nil {
			t.Fatalf("%s: flow check passed with detected fault %s reported untestable", nl.Name, faults[i])
		}
	}
}

func TestCheckCatchesWrongFaultCount(t *testing.T) {
	nl := smallFlowInputs(t, 3)[0]
	c, faults, cl := checkedFlow(t, nl)
	cl.Total++
	if err := checkClaim(c, faults, cl); err == nil {
		t.Fatal("check passed with a wrong fault count")
	}
}

func TestPercentile(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1)
	}
	if got := percentile(xs, 0.95); got != 190 {
		t.Errorf("p95 of 1..200 = %v, want 190", got)
	}
	if got := beyond(len(xs), 0.95); got != 10 {
		t.Errorf("beyond(200, 0.95) = %d, want 10", got)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, StartNS: 10, EndNS: 40},
		{ID: 3, Parent: 1, StartNS: 30, EndNS: 60},  // overlaps span 2
		{ID: 4, Parent: 1, StartNS: 90, EndNS: 120}, // runs past its parent
		{ID: 5, Parent: 2, StartNS: 15, EndNS: 20},
	}
	selfTimes(spans)
	want := []int64{100 - 50 - 10, 30 - 5, 30, 30, 5}
	for i, s := range spans {
		if s.SelfNS != want[i] {
			t.Errorf("span %d self = %d, want %d", s.ID, s.SelfNS, want[i])
		}
	}
}

func TestTracerIsNilSafe(t *testing.T) {
	var tr *tracer
	tr.end(tr.begin("g", "x", 0))
	tr.record("g", "y", 0, time.Now(), time.Now())
	if _, err := (&tracer{}).finish(filepath.Join(t.TempDir(), "spans.jsonl")); err != nil {
		t.Fatal(err)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metric tables the
// program prints from in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command   []string `json:"command"`
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := names, workloadNames(); !equalStrings(got, want) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", got, want)
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit || got[i].Better != want[i].Better {
				t.Errorf("%s %d: BENCHMARK.json %+v, program %+v", kind, i, got[i], want[i])
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
