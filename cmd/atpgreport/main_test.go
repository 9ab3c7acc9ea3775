package main

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"atpgeasy/internal/atpg"
	"atpgeasy/internal/gen"
	"atpgeasy/internal/obs"
)

// runObserved produces a real effort log + span trace in memory.
func runObserved(t *testing.T) (atpg.EffortHeader, []atpg.EffortRecord, []obs.SpanRecord) {
	t.Helper()
	c := gen.ArrayMultiplier(4)
	var effort, trace bytes.Buffer
	log := atpg.NewEffortLog(&effort)
	tr := obs.NewTrace(&trace)
	eng := &atpg.Engine{Workers: 2}
	// RPT off: on a circuit this small random patterns detect everything,
	// and the report's interesting sections need solver-decided faults.
	if _, err := eng.Run(context.Background(), c, atpg.RunOptions{
		Collapse: true, DropDetected: true,
		EffortLog: log,
		Telemetry: &atpg.Telemetry{Trace: tr},
	}); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	hdr, recs, err := atpg.DecodeEffortLog(&effort)
	if err != nil {
		t.Fatal(err)
	}
	spans, err := readSpans(&trace)
	if err != nil {
		t.Fatal(err)
	}
	return hdr, recs, spans
}

func TestBuildReport(t *testing.T) {
	hdr, recs, spans := runObserved(t)
	rep := buildReport(hdr, recs, spans, 5, 6)

	if rep.Circuit != hdr.Circuit || rep.Faults != hdr.Faults {
		t.Errorf("report header %q/%d, want %q/%d", rep.Circuit, rep.Faults, hdr.Circuit, hdr.Faults)
	}
	if rep.SolverFaults == 0 {
		t.Fatal("no solver-decided faults in the report")
	}
	wantFeats := []string{"cone_size", "cone_depth", "gates", "cc0", "cc1", "co"}
	if len(rep.Correlations) != len(wantFeats) {
		t.Fatalf("%d correlations, want %d", len(rep.Correlations), len(wantFeats))
	}
	seen := map[string]bool{}
	for _, corr := range rep.Correlations {
		seen[corr.Feature] = true
		if corr.N != rep.SolverFaults {
			t.Errorf("correlation %s over %d faults, want %d", corr.Feature, corr.N, rep.SolverFaults)
		}
		if corr.Spearman < -1.0001 || corr.Spearman > 1.0001 {
			t.Errorf("spearman(%s) = %v out of range", corr.Feature, corr.Spearman)
		}
	}
	for _, f := range wantFeats {
		if !seen[f] {
			t.Errorf("feature %s missing from correlations", f)
		}
	}
	if rep.WallsSource != "spans" {
		t.Errorf("walls source %q with a trace supplied", rep.WallsSource)
	}
	if len(rep.Top) == 0 || len(rep.Top) > 5 {
		t.Fatalf("top list has %d entries", len(rep.Top))
	}
	for i := 1; i < len(rep.Top); i++ {
		if rep.Top[i].Effort > rep.Top[i-1].Effort {
			t.Errorf("top list not sorted: %d before %d", rep.Top[i-1].Effort, rep.Top[i].Effort)
		}
	}
	ir := rep.Incremental
	if ir == nil {
		t.Fatal("incremental run produced no reuse section")
	}
	if ir.GroupedFaults == 0 || ir.Groups == 0 || ir.MeanGroupSize < 1 {
		t.Errorf("reuse section shape: %+v", ir)
	}
	if ir.GroupedFaults > rep.SolverFaults {
		t.Errorf("grouped %d > solver-decided %d", ir.GroupedFaults, rep.SolverFaults)
	}
	if ir.Spearman < -1.0001 || ir.Spearman > 1.0001 {
		t.Errorf("reuse spearman %v out of range", ir.Spearman)
	}
}

func TestIncrementalSectionAbsentForFreshRun(t *testing.T) {
	hdr := atpg.EffortHeader{Kind: "header", Schema: atpg.EffortSchema, Circuit: "fresh", Faults: 2}
	recs := []atpg.EffortRecord{
		{Kind: "fault", Fault: "a/0", Phase: "sweep", Status: "detected", Effort: 5},
		{Kind: "fault", Fault: "b/1", Phase: "sweep", Status: "untestable", Effort: 9},
	}
	rep := buildReport(hdr, recs, nil, 3, 4)
	if rep.Incremental != nil {
		t.Errorf("fresh-per-fault log grew a reuse section: %+v", rep.Incremental)
	}
	if strings.Contains(rep.Markdown(), "Incremental reuse") {
		t.Error("markdown renders a reuse section for a fresh run")
	}
}

func TestMarkdownRender(t *testing.T) {
	hdr, recs, spans := runObserved(t)
	md := buildReport(hdr, recs, spans, 5, 6).Markdown()
	for _, want := range []string{
		"# ATPG effort report",
		"rank correlation",
		"cone_size", "gates", "cc0", "co",
		"Per-phase wall time (from spans)",
		"most expensive faults",
		"Incremental reuse vs effort",
	} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q", want)
		}
	}
}

func TestRecordsFallbackAndJSON(t *testing.T) {
	hdr, recs, _ := runObserved(t)
	rep := buildReport(hdr, recs, nil, 3, 4)
	if rep.WallsSource != "records" {
		t.Errorf("walls source %q without a trace", rep.WallsSource)
	}
	out, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(out, &back); err != nil {
		t.Fatal(err)
	}
	if back.Circuit != rep.Circuit || len(back.Correlations) != len(rep.Correlations) {
		t.Errorf("JSON round-trip lost data: %+v", back)
	}
}

func TestBuildReportEmpty(t *testing.T) {
	// A log with a header and no records (everything RPT-dropped before
	// any solve) must still render without panicking.
	hdr := atpg.EffortHeader{Kind: "header", Schema: atpg.EffortSchema, Circuit: "empty", Faults: 0}
	rep := buildReport(hdr, nil, nil, 5, 4)
	md := rep.Markdown()
	if !strings.Contains(md, "rank correlation") {
		t.Error("empty report dropped the correlation section")
	}
}

// TestReadSpansTornLines: like the effort decoder, the trace reader drops
// a torn final line but refuses a malformed line with records after it.
func TestReadSpansTornLines(t *testing.T) {
	span := `{"kind":"span","id":1,"name":"run","start_ns":0,"dur_ns":5}`
	event := `{"kind":"faultsim","t_ns":3,"worker":0,"batch":2}`
	spans, err := readSpans(strings.NewReader(span + "\n" + event + "\n" + `{"kind":"span","id":2,"na`))
	if err != nil || len(spans) != 1 || spans[0].Name != "run" {
		t.Fatalf("torn tail: spans %+v, err %v", spans, err)
	}
	for _, torn := range []string{`{"kind":"span","id":2,"na`, `{"kind":"faults`} {
		if spans, err := readSpans(strings.NewReader(span + "\n" + torn + "\n" + event + "\n")); err == nil {
			t.Errorf("malformed middle line %q accepted as %+v", torn, spans)
		}
	}
}
