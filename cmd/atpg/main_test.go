package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"atpgeasy/internal/atpg"
	"atpgeasy/internal/bench"
	"atpgeasy/internal/cnf"
	"atpgeasy/internal/sat"
)

func TestGenerate(t *testing.T) {
	cases := map[string]struct {
		inputs, outputs int
	}{
		"ripple4": {9, 5},
		"cla8":    {17, 9},
		"mult3":   {6, 6},
		"alu2":    {7, 3},
		"parity8": {8, 1},
		"dec3":    {3, 8},
		"mux2":    {6, 1},
		"cmp4":    {8, 3},
		"cell1d5": {11, 6},
		"tree2x3": {8, 1},
		"rand50":  {10, 0}, // outputs derived
	}
	for name, want := range cases {
		c, err := generate(name)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if len(c.Inputs) != want.inputs {
			t.Errorf("%s: %d inputs, want %d", name, len(c.Inputs), want.inputs)
		}
		if want.outputs > 0 && len(c.Outputs) != want.outputs {
			t.Errorf("%s: %d outputs, want %d", name, len(c.Outputs), want.outputs)
		}
	}
	for _, bad := range []string{"", "nope", "ripple", "tree2", "treeAxB", "mult0"} {
		if _, err := generate(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}

func TestLoadCircuit(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.bench")
	c, err := generate("ripple4")
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := bench.Write(f, c); err != nil {
		t.Fatal(err)
	}
	f.Close()
	back, err := loadCircuit(path, "", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Inputs) != len(c.Inputs) {
		t.Error("interface changed through file round trip")
	}
	if _, err := loadCircuit("", "", ""); err == nil {
		t.Error("no source accepted")
	}
	if _, err := loadCircuit("/nonexistent.bench", "", ""); err == nil {
		t.Error("missing file accepted")
	}
}

// TestDumpDIMACSNameCollision: -dimacs on a netlist with a net named
// like one of the ATPG-SAT construction's own copies (z~xor, the XOR
// of output z) must write one parseable instance per observable fault
// instead of panicking on a duplicate node name.
func TestDumpDIMACSNameCollision(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "red.bench")
	netlist := "INPUT(a)\nINPUT(b)\nOUTPUT(z)\nna = NOT(a)\nr = AND(a, na)\nz~xor = BUF(b)\nz = OR(r, z~xor)\n"
	if err := os.WriteFile(path, []byte(netlist), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := loadCircuit(path, "", "")
	if err != nil {
		t.Fatal(err)
	}
	faults := atpg.Collapse(c, atpg.AllFaults(c))
	observable := 0
	for _, f := range faults {
		for _, id := range c.TransitiveFanout(f.Net) {
			if c.IsOutput(id) {
				observable++
				break
			}
		}
	}
	out := filepath.Join(dir, "cnf")
	if err := dumpDIMACS(c, faults, out, io.Discard); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(out, "*.cnf"))
	if err != nil {
		t.Fatal(err)
	}
	if observable == 0 || len(files) != observable {
		t.Fatalf("%d DIMACS files for %d observable faults", len(files), observable)
	}
	for _, name := range files {
		f, err := os.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		_, err = cnf.ReadDIMACS(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestBuildJSONSummary(t *testing.T) {
	sum := &atpg.Summary{
		Circuit:           "c",
		Total:             14,
		Detected:          6,
		Untestable:        1,
		Aborted:           1,
		Errors:            1,
		DroppedByFaultSim: 2,
		DetectedByRPT:     4,
		WastedSolves:      3,
		Retries: []atpg.RetryTier{
			{Tier: 1, Budget: 40 * time.Millisecond, Attempted: 2, Recovered: 1},
		},
		RPTBatches:  3,
		RPTVectors:  5,
		Vectors:     make([][]bool, 11),
		WallElapsed: 2 * time.Millisecond,
		Phases: atpg.PhaseTimes{
			RPT:      250 * time.Microsecond,
			Build:    time.Millisecond,
			Load:     400 * time.Microsecond,
			Solve:    3 * time.Millisecond,
			FaultSim: 500 * time.Microsecond,
		},
		SolverTotals: sat.Stats{Nodes: 42, Decisions: 7},
	}
	doc := buildJSONSummary(sum, 4, 100*time.Millisecond, 64, false)
	raw, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	// The documented schema: decode into a free-form map and check the
	// stable field names a scripting consumer would rely on.
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if m["schema"] != summarySchema {
		t.Errorf("schema = %v", m["schema"])
	}
	faults, ok := m["faults"].(map[string]any)
	if !ok {
		t.Fatalf("faults = %T", m["faults"])
	}
	for field, want := range map[string]float64{
		"total": 14, "detected": 6, "detected_by_rpt": 4, "untestable": 1, "aborted": 1, "errors": 1, "dropped_by_sim": 2,
	} {
		if faults[field] != want {
			t.Errorf("faults.%s = %v, want %v", field, faults[field], want)
		}
	}
	rpt, ok := m["rpt"].(map[string]any)
	if !ok {
		t.Fatalf("rpt = %T", m["rpt"])
	}
	if rpt["batches"] != float64(3) || rpt["vectors"] != float64(5) {
		t.Errorf("rpt = %v", rpt)
	}
	phases, ok := m["phases"].(map[string]any)
	if !ok {
		t.Fatalf("phases = %T", m["phases"])
	}
	if phases["rpt_ns"] != 2.5e5 || phases["build_ns"] != 1e6 || phases["load_ns"] != 4e5 ||
		phases["solve_ns"] != 3e6 || phases["faultsim_ns"] != 5e5 {
		t.Errorf("phases = %v", phases)
	}
	if m["sat_time_ns"] != 3e6 || m["wall_ns"] != 2e6 {
		t.Errorf("times = %v / %v", m["sat_time_ns"], m["wall_ns"])
	}
	if m["budget_ns"] != 1e8 {
		t.Errorf("budget_ns = %v", m["budget_ns"])
	}
	if m["coverage"] != float64(sum.Coverage()) {
		t.Errorf("coverage = %v", m["coverage"])
	}
	if m["wasted_solves"] != float64(3) {
		t.Errorf("wasted_solves = %v", m["wasted_solves"])
	}
	// wasted_solves is always present, 0 included (every serial run).
	zero, err := json.Marshal(buildJSONSummary(&atpg.Summary{}, 1, 0, 64, false))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(zero), `"wasted_solves":0`) {
		t.Errorf("wasted_solves omitted when 0: %s", zero)
	}
	st, ok := m["solver_totals"].(map[string]any)
	if !ok || st["nodes"] != float64(42) {
		t.Errorf("solver_totals = %v", m["solver_totals"])
	}
	if _, present := m["interrupted"]; present {
		t.Error("interrupted should be omitted when false")
	}
	retries, ok := m["retries"].([]any)
	if !ok || len(retries) != 1 {
		t.Fatalf("retries = %v", m["retries"])
	}
	tier, ok := retries[0].(map[string]any)
	if !ok || tier["tier"] != float64(1) || tier["budget_ns"] != 4e7 ||
		tier["attempted"] != float64(2) || tier["recovered"] != float64(1) {
		t.Errorf("retries[0] = %v", retries[0])
	}
	if !strings.Contains(string(raw), `"workers":4`) {
		t.Errorf("workers missing: %s", raw)
	}
	if m["group_max"] != float64(64) {
		t.Errorf("group_max = %v", m["group_max"])
	}
}

// TestSetupTelemetry: the flag wiring must produce a working telemetry
// bundle — a reachable metrics server, a trace file, a progress callback —
// and a close function that flushes everything.
func TestSetupTelemetry(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.jsonl")
	tel, closeTel, err := setupTelemetry("127.0.0.1:0", tracePath, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if tel.Metrics == nil || tel.Trace == nil || tel.OnProgress == nil {
		t.Fatalf("incomplete telemetry: %+v", tel)
	}
	if err := tel.Trace.Emit(map[string]int{"x": 1}); err != nil {
		t.Fatal(err)
	}
	if err := closeTel(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"x":1`) {
		t.Errorf("trace file = %q", data)
	}

	// All flags off: no telemetry, close is a no-op.
	tel, closeTel, err = setupTelemetry("", "", 0)
	if err != nil || tel != nil {
		t.Fatalf("tel = %v, err = %v", tel, err)
	}
	if err := closeTel(); err != nil {
		t.Fatal(err)
	}
}

// buildCLI compiles the atpg binary once per test binary run, for the
// end-to-end process tests below.
var (
	cliOnce sync.Once
	cliPath string
	cliErr  error
)

func buildCLI(t *testing.T) string {
	t.Helper()
	cliOnce.Do(func() {
		dir, err := os.MkdirTemp("", "atpg-cli-*")
		if err != nil {
			cliErr = err
			return
		}
		cliPath = filepath.Join(dir, "atpg")
		if out, err := exec.Command("go", "build", "-o", cliPath, ".").CombinedOutput(); err != nil {
			cliErr = fmt.Errorf("go build: %v\n%s", err, out)
		}
	})
	if cliErr != nil {
		t.Fatal(cliErr)
	}
	return cliPath
}

// TestCLITraceFlushOnInterrupt: a SIGINT-drained traced run must still
// produce a fully flushed JSONL trace and one parseable JSON summary —
// the regression the old code hit by exiting error paths before closing
// the trace sink.
func TestCLITraceFlushOnInterrupt(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	bin := buildCLI(t)
	dir := t.TempDir()
	trace := filepath.Join(dir, "trace.jsonl")

	// rand500 is random-pattern resistant: the run spends >1s in SAT
	// solving, so the signal lands mid-sweep with the trace mid-stream.
	cmd := exec.Command(bin, "-gen", "rand500", "-j", "2", "-rpt-batches", "4", "-trace", trace, "-json")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond)
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	err := cmd.Wait()

	var doc map[string]any
	if jerr := json.Unmarshal(stdout.Bytes(), &doc); jerr != nil {
		t.Fatalf("stdout is not one JSON document: %v\nstdout: %s\nstderr: %s", jerr, stdout.Bytes(), stderr.Bytes())
	}
	if doc["schema"] != summarySchema {
		t.Errorf("schema = %v", doc["schema"])
	}
	if err != nil {
		// Interrupted mid-run (the intended path): the summary must say so.
		if doc["interrupted"] != true {
			t.Errorf("exit error %v but summary not marked interrupted", err)
		}
	} else {
		t.Logf("run finished before the signal landed; trace checks still apply")
	}

	data, rerr := os.ReadFile(trace)
	if rerr != nil {
		t.Fatal(rerr)
	}
	if len(data) == 0 || data[len(data)-1] != '\n' {
		t.Fatalf("trace not fully flushed: %d bytes, trailing %q", len(data), data[len(data)-1:])
	}
	for i, line := range bytes.Split(bytes.TrimRight(data, "\n"), []byte("\n")) {
		if !json.Valid(line) {
			t.Fatalf("trace line %d is not valid JSON: %q", i+1, line)
		}
	}
}

// TestCLICheckpointResume: a -resume of a completed journal must skip
// every decided fault and reproduce the original run's coverage, fault
// counts and vectors exactly. It runs the default flow, fault dropping
// included, on a comparator whose sweep drops most of its faults: the
// journal holds no drops, so the resume must re-derive every one.
func TestCLICheckpointResume(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	bin := buildCLI(t)
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "run.ckpt")

	// run returns the -json summary and the -vectors listing, which
	// -json moves to stderr.
	run := func(extra ...string) (map[string]any, string) {
		args := append([]string{
			"-gen", "cmp48", "-j", "2", "-seed", "7",
			"-checkpoint", ckpt, "-json", "-vectors",
		}, extra...)
		cmd := exec.Command(bin, args...)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("atpg %v: %v\n%s", args, err, stderr.Bytes())
		}
		var doc map[string]any
		if err := json.Unmarshal(stdout.Bytes(), &doc); err != nil {
			t.Fatalf("bad JSON: %v\n%s", err, stdout.Bytes())
		}
		return doc, stderr.String()
	}
	vectors := func(stderr string) string {
		i := strings.Index(stderr, "test vectors (inputs:")
		if i < 0 {
			t.Fatalf("no vector listing on stderr:\n%s", stderr)
		}
		return stderr[i:]
	}

	first, firstErr := run()
	journal, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(journal, []byte(`"kind":"fault"`)) {
		t.Fatal("journal holds no solver verdicts — circuit too easy for this test")
	}
	if faults, _ := first["faults"].(map[string]any); faults["dropped_by_sim"] == float64(0) {
		t.Fatal("the run dropped no faults — it cannot tell a resume that re-derives drops")
	}

	second, secondErr := run("-resume")
	if !strings.Contains(secondErr, "resuming") {
		t.Errorf("resume not reported on stderr: %s", secondErr)
	}
	for _, field := range []string{"coverage", "vectors", "faults"} {
		if fmt.Sprint(first[field]) != fmt.Sprint(second[field]) {
			t.Errorf("%s differs across resume: %v vs %v", field, first[field], second[field])
		}
	}
	if vectors(firstErr) != vectors(secondErr) {
		t.Error("-vectors listing differs across resume")
	}
}

// TestCLIGroupMaxRecordsCap: a -group-max of 0 or below runs with
// DefaultGroupMax, and -json records that cap, as "workers" records the
// effective worker count, not the flag's value.
func TestCLIGroupMaxRecordsCap(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	bin := buildCLI(t)
	for _, flagVal := range []string{"0", "-3"} {
		out, err := exec.Command(bin, "-gen", "cmp48", "-j", "1", "-group-max", flagVal, "-json").Output()
		if err != nil {
			t.Fatalf("-group-max %s: %v", flagVal, err)
		}
		var doc map[string]any
		if err := json.Unmarshal(out, &doc); err != nil {
			t.Fatalf("-group-max %s: bad JSON: %v\n%s", flagVal, err, out)
		}
		if doc["group_max"] != float64(atpg.DefaultGroupMax) {
			t.Errorf("-group-max %s: group_max = %v, want %d", flagVal, doc["group_max"], atpg.DefaultGroupMax)
		}
	}
}

// TestCLIResumeRejectsBrokenJournal edits a completed default-flow
// journal two ways and requires -resume to fail, naming the fault: with
// every fault vector overwritten by zeros, the commit frontier's
// re-simulation finds one that does not detect its fault; with the first
// fault vector deleted, the journal check finds a detected verdict
// without a vector. Either failure prints its "atpg:" prefix once.
func TestCLIResumeRejectsBrokenJournal(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	bin := buildCLI(t)
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "run.ckpt")
	if out, err := exec.Command(bin, "-gen", "cmp48", "-j", "1", "-checkpoint", ckpt).CombinedOutput(); err != nil {
		t.Fatalf("checkpointed run: %v\n%s", err, out)
	}
	journal, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	vector := regexp.MustCompile(`"vector":"[01]+"`)
	first := vector.FindIndex(journal)
	if first == nil {
		t.Fatal("the journal holds no fault vector")
	}
	zero := func(v []byte) []byte { return bytes.ReplaceAll(v, []byte("1"), []byte("0")) }
	for _, e := range []struct {
		name, want string
		journal    []byte
	}{
		{"zeroed", "does not detect", vector.ReplaceAllFunc(journal, zero)},
		{"deleted", "has no vector", slices.Concat(journal[:first[0]], []byte(`"vector":""`), journal[first[1]:])},
	} {
		if err := os.WriteFile(ckpt, e.journal, 0o644); err != nil {
			t.Fatal(err)
		}
		out, err := exec.Command(bin, "-gen", "cmp48", "-j", "1", "-checkpoint", ckpt, "-resume").CombinedOutput()
		if err == nil || !bytes.Contains(out, []byte(e.want)) {
			t.Errorf("%s journal: -resume returned %v, want a failure saying %q:\n%s", e.name, err, e.want, out)
		}
		if bytes.Contains(out, []byte("atpg: atpg:")) {
			t.Errorf("%s journal: the error carries its prefix twice:\n%s", e.name, out)
		}
	}
}
