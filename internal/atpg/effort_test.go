package atpg

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"atpgeasy/internal/gen"
	"atpgeasy/internal/logic"
	"atpgeasy/internal/obs"
)

// TestScoapGates pins the classic SCOAP recurrences on hand-checkable
// gates (Goldstein's worked examples).
func TestScoapGates(t *testing.T) {
	b := logic.NewBuilder("scoap")
	a := b.Input("a")
	bb := b.Input("b")
	and := b.Gate(logic.And, "and", a, bb)
	b.MarkOutput(and)
	c := b.MustBuild()
	s := ComputeScoap(c)

	if s.CC0[a] != 1 || s.CC1[a] != 1 {
		t.Errorf("input CC = (%d,%d), want (1,1)", s.CC0[a], s.CC1[a])
	}
	// AND: CC0 = min(CC0 inputs)+1 = 2, CC1 = sum(CC1 inputs)+1 = 3.
	if s.CC0[and] != 2 || s.CC1[and] != 3 {
		t.Errorf("AND CC = (%d,%d), want (2,3)", s.CC0[and], s.CC1[and])
	}
	// Output observes itself for free; observing a costs CC1(b)+1.
	if s.CO[and] != 0 {
		t.Errorf("output CO = %d, want 0", s.CO[and])
	}
	if s.CO[a] != 2 {
		t.Errorf("CO(a) through AND = %d, want 2", s.CO[a])
	}
}

func TestScoapXorAndInversion(t *testing.T) {
	b := logic.NewBuilder("scoap2")
	a := b.Input("a")
	bb := b.Input("b")
	x := b.Gate(logic.Xor, "x", a, bb)
	// g = AND(a, ¬b): the bubble swaps which controllability pin b pays.
	g := b.GateN(logic.And, "g", []int{a, bb}, []bool{false, true})
	n := b.Gate(logic.Not, "n", a)
	b.MarkOutput(x)
	b.MarkOutput(g)
	b.MarkOutput(n)
	c := b.MustBuild()
	s := ComputeScoap(c)

	// XOR parity DP over unit inputs: CC0 = CC1 = 3.
	if s.CC0[x] != 3 || s.CC1[x] != 3 {
		t.Errorf("XOR CC = (%d,%d), want (3,3)", s.CC0[x], s.CC1[x])
	}
	// AND with inverted b: CC1 = CC1(a)+CC0(b)+1 = 3, CC0 = min(CC0(a), CC1(b))+1 = 2.
	if s.CC0[g] != 2 || s.CC1[g] != 3 {
		t.Errorf("AND(a,¬b) CC = (%d,%d), want (2,3)", s.CC0[g], s.CC1[g])
	}
	// NOT swaps controllabilities and adds 1.
	if s.CC0[n] != 2 || s.CC1[n] != 2 {
		t.Errorf("NOT CC = (%d,%d), want (2,2)", s.CC0[n], s.CC1[n])
	}
	// a is observed cheapest through the NOT output (CO(n)=0, no side
	// pins): CO(a) = 1; the XOR and AND paths cost 2 and lose the min.
	if s.CO[a] != 1 {
		t.Errorf("CO(a) = %d, want 1", s.CO[a])
	}
	// b's only paths are XOR (side cost min(CC0(a),CC1(a))=1) and the
	// inverted AND pin (side cost CC1(a)=1): CO(b) = 2 either way.
	if s.CO[bb] != 2 {
		t.Errorf("CO(b) = %d, want 2", s.CO[bb])
	}
}

func TestScoapConstSaturates(t *testing.T) {
	b := logic.NewBuilder("scoap3")
	x := b.Input("x")
	one := b.Const("one", true)
	g := b.Gate(logic.And, "g", x, one)
	b.MarkOutput(g)
	c := b.MustBuild()
	s := ComputeScoap(c)
	if s.CC1[one] != 0 || s.CC0[one] != scoapInf {
		t.Errorf("const-1 CC = (%d,%d), want (inf,0)", s.CC0[one], s.CC1[one])
	}
	// Sums through the uncontrollable pin must saturate, never overflow.
	if s.CC0[g] < 0 || s.CC1[g] < 0 || s.CC0[g] > scoapInf || s.CC1[g] > scoapInf {
		t.Errorf("saturation broken: CC(g) = (%d,%d)", s.CC0[g], s.CC1[g])
	}
}

// TestFaultFeatures pins the structural features on a 3-node chain
// a → NOT b → NOT out.
func TestFaultFeatures(t *testing.T) {
	bld := logic.NewBuilder("chain")
	a := bld.Input("a")
	nb := bld.Gate(logic.Not, "b", a)
	out := bld.Gate(logic.Not, "out", nb)
	bld.MarkOutput(out)
	c := bld.MustBuild()

	faults := []Fault{{Net: a, StuckAt: false}, {Net: out, StuckAt: true}}
	feats := newRegionTable(c).features(faults)

	fa := feats[0]
	if fa.ConeSize != 3 || fa.ConeDepth != 3 {
		t.Errorf("a: cone (size %d, depth %d), want (3, 3)", fa.ConeSize, fa.ConeDepth)
	}
	if fa.Gates != 2 {
		t.Errorf("a: gates = %d, want 2", fa.Gates)
	}
	fo := feats[1]
	if fo.ConeSize != 1 || fo.ConeDepth != 1 {
		t.Errorf("out: cone (size %d, depth %d), want (1, 1)", fo.ConeSize, fo.ConeDepth)
	}
	// out's sub-circuit is its own fanin support: both NOT gates.
	if fo.Gates != 2 {
		t.Errorf("out: gates = %d, want 2", fo.Gates)
	}
}

// TestEffortLogEmptyFaultList runs an empty fault list with an effort
// log at 1 and 4 workers: the run reports 0 faults and the log holds only
// its header.
func TestEffortLogEmptyFaultList(t *testing.T) {
	c := gen.RippleAdder(2)
	for _, workers := range []int{1, 4} {
		var buf bytes.Buffer
		opt := DefaultRunOptions()
		opt.EffortLog = NewEffortLog(&buf)
		sum, err := (&Engine{Workers: workers}).RunFaults(context.Background(), c, nil, opt)
		if err != nil {
			t.Fatalf("j%d: %v", workers, err)
		}
		if err := opt.EffortLog.Close(); err != nil {
			t.Fatalf("j%d: close: %v", workers, err)
		}
		if sum.Total != 0 || len(sum.Vectors) != 0 {
			t.Errorf("j%d: summary %d faults, %d vectors, want 0 and 0", workers, sum.Total, len(sum.Vectors))
		}
		hdr, recs, err := DecodeEffortLog(&buf)
		if err != nil {
			t.Fatalf("j%d: decode: %v", workers, err)
		}
		if hdr.Schema != EffortSchema || hdr.Faults != 0 || len(recs) != 0 {
			t.Errorf("j%d: header %+v and %d records, want a 0-fault header only", workers, hdr, len(recs))
		}
	}
}

// TestEffortLogRoundTrip checks the effort log's core invariant over
// {1, 4} workers: exactly one non-wasted record per fault — RPT-detected,
// solved or cleanly dropped — with statuses and solver counters joining
// Summary.Results losslessly; clean drops carry no solver work; and each
// wasted speculative solve adds one wasted record. A 16-bit comparator
// resists random patterns: after a short pre-phase it leaves faults for
// the solvers and for fault-simulation drops.
func TestEffortLogRoundTrip(t *testing.T) {
	c := gen.Comparator(16)
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("j%d", workers), func(t *testing.T) {
			var buf bytes.Buffer
			log := NewEffortLog(&buf)
			eng := &Engine{Workers: workers}
			sum, err := eng.Run(context.Background(), c, RunOptions{
				Collapse: true, DropDetected: true,
				RPTBatches: 4,
				EffortLog:  log,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := log.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
			if sum.DetectedByRPT == 0 || sum.DroppedByFaultSim == 0 || len(sum.Results) == 0 {
				t.Fatalf("run exercises too little: %d rpt, %d dropped, %d solved",
					sum.DetectedByRPT, sum.DroppedByFaultSim, len(sum.Results))
			}

			hdr, recs, err := DecodeEffortLog(&buf)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if hdr.Schema != EffortSchema || hdr.Circuit != c.Name || hdr.Faults != sum.Total || hdr.Workers != workers {
				t.Fatalf("header %+v", hdr)
			}

			byIdx := map[int]EffortRecord{}
			wasted := 0
			for _, r := range recs {
				if r.Wasted {
					wasted++
					if r.Phase != "dropped" || r.Status != "dropped" {
						t.Errorf("wasted record in phase %q status %q: %+v", r.Phase, r.Status, r)
					}
					continue
				}
				if prev, dup := byIdx[r.Index]; dup {
					t.Errorf("fault %d recorded twice: %+v / %+v", r.Index, prev, r)
				}
				byIdx[r.Index] = r
			}
			if len(byIdx) != sum.Total {
				t.Errorf("%d verdict records, want %d", len(byIdx), sum.Total)
			}
			if wasted != sum.WastedSolves {
				t.Errorf("%d wasted records, want %d", wasted, sum.WastedSolves)
			}

			byName := map[string]Result{}
			for _, r := range sum.Results {
				byName[r.Fault.Name(c)] = r
			}
			phases := map[string]int{}
			for _, r := range byIdx {
				phases[r.Phase]++
				if r.ConeSize < 1 || r.Gates < 1 {
					t.Errorf("empty features on %+v", r)
				}
				switch r.Phase {
				case "dropped":
					if r.Status != "dropped" || r.Worker != -1 || r.SolveNS != 0 || r.Effort != 0 {
						t.Errorf("clean drop with solver work: %+v", r)
					}
				case "rpt":
					if r.Status != "detected" {
						t.Errorf("rpt record with status %q", r.Status)
					}
				default:
					// Statuses and solver counters join Summary.Results.
					res, ok := byName[r.Fault]
					if !ok {
						t.Errorf("record %q (phase %s) has no summary result", r.Fault, r.Phase)
						continue
					}
					if r.Status != res.Status.String() {
						t.Errorf("%q status %q, summary says %q", r.Fault, r.Status, res.Status)
					}
					if r.Effort != res.SolverStats.SearchEffort() {
						t.Errorf("%q effort %d, summary says %d", r.Fault, r.Effort, res.SolverStats.SearchEffort())
					}
					if r.BuildNS != res.BuildElapsed.Nanoseconds() || r.LoadNS != res.LoadElapsed.Nanoseconds() {
						t.Errorf("%q build/load %d/%d ns, summary says %v/%v", r.Fault, r.BuildNS, r.LoadNS, res.BuildElapsed, res.LoadElapsed)
					}
				}
			}
			if phases["rpt"] != sum.DetectedByRPT || phases["dropped"] != sum.DroppedByFaultSim || phases["sweep"] != len(sum.Results) {
				t.Errorf("records by phase %v, want rpt %d, dropped %d, sweep %d",
					phases, sum.DetectedByRPT, sum.DroppedByFaultSim, len(sum.Results))
			}
		})
	}
}

// TestEffortLogSchemaRejected: wrong-schema and headerless streams must
// be rejected, truncated tails tolerated.
func TestEffortLogSchemaRejected(t *testing.T) {
	if _, _, err := DecodeEffortLog(strings.NewReader(`{"kind":"fault"}`)); err == nil {
		t.Error("headerless log accepted")
	}
	if _, _, err := DecodeEffortLog(strings.NewReader(`{"kind":"header","schema":"atpgeasy/effort/v0"}`)); err == nil {
		t.Error("wrong schema accepted")
	}
	if _, _, err := DecodeEffortLog(strings.NewReader("")); err == nil {
		t.Error("empty log accepted")
	}
	good := `{"kind":"header","schema":"atpgeasy/effort/v1","circuit":"x","faults":2}` + "\n" +
		`{"kind":"fault","i":0,"fault":"a/0","phase":"sweep","status":"detected"}` + "\n" +
		`{"kind":"fault","i":1,"fau` // torn mid-crash
	hdr, recs, err := DecodeEffortLog(strings.NewReader(good))
	if err != nil {
		t.Fatalf("truncated log rejected: %v", err)
	}
	if hdr.Circuit != "x" || len(recs) != 1 || recs[0].Fault != "a/0" {
		t.Errorf("truncated log parsed as %+v / %+v", hdr, recs)
	}
	// A malformed line with records after it is corruption, not a torn
	// tail: like the checkpoint journal, the decoder refuses it.
	mid := `{"kind":"header","schema":"atpgeasy/effort/v1","circuit":"x","faults":3}` + "\n" +
		`{"kind":"fault","i":0,"fault":"a/0","phase":"sweep","status":"detected"}` + "\n" +
		`{"kind":"fault","i":1,"fau` + "\n" +
		`{"kind":"fault","i":2,"fault":"c/0","phase":"sweep","status":"untestable"}` + "\n"
	if _, recs, err := DecodeEffortLog(strings.NewReader(mid)); err == nil {
		t.Errorf("log with a malformed middle line accepted as %+v", recs)
	}
}

// TestEffortLogDecodesRoutedV1: logs written by the since-removed routed
// dispatch carry two more per-record fields (the router's predicted
// class and the deciding backend) under the same v1 schema. The fixture
// is such a log, of c17; it must still decode, record for record, so
// cmd/atpgreport can read it.
func TestEffortLogDecodesRoutedV1(t *testing.T) {
	f, err := os.Open("testdata/effort-v1-routed.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	hdr, recs, err := DecodeEffortLog(f)
	if err != nil {
		t.Fatalf("routed v1 log rejected: %v", err)
	}
	if hdr.Schema != EffortSchema || len(recs) != hdr.Faults {
		t.Fatalf("header %+v, %d records", hdr, len(recs))
	}
	for _, r := range recs {
		if r.Fault == "" || r.Gates < 1 || (r.Status != "detected" && r.Status != "dropped") {
			t.Errorf("record decoded as %+v", r)
		}
	}
}

// TestSpanTree: a traced run must emit a well-formed span forest — one
// root "run" span, every other span's parent resolving to an emitted
// span, and every "group" span hanging off the sweep. Per-fault records
// go to the effort log, so the trace holds no "fault" span; the group a
// fault was solved in still has its span. The circuit leaves work past
// the pre-phase for the solvers; the run goes at the default group-size
// cap and at 1.
func TestSpanTree(t *testing.T) {
	c := gen.Random(gen.RandomParams{Inputs: 20, Gates: 200, Seed: 3})
	for _, plan := range []struct {
		name     string
		groupMax int
	}{
		{name: "grouped", groupMax: DefaultGroupMax},
		{name: "grouped-max1", groupMax: 1},
	} {
		var trace bytes.Buffer
		tr := obs.NewTrace(&trace)
		eng := &Engine{Workers: 4}
		sum, err := eng.Run(context.Background(), c, RunOptions{
			Collapse: true, DropDetected: true,
			RPTBatches: DefaultRPTBatches,
			GroupMax:   plan.groupMax,
			Telemetry:  &Telemetry{Trace: tr},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
		if len(sum.Results) == 0 {
			t.Fatalf("%s: no fault reached the solvers", plan.name)
		}

		var spans []obs.SpanRecord
		for _, line := range bytes.Split(trace.Bytes(), []byte("\n")) {
			if !bytes.Contains(line, []byte(`"kind":"span"`)) {
				continue
			}
			var sp obs.SpanRecord
			if err := json.Unmarshal(line, &sp); err != nil {
				t.Fatalf("bad span line %q: %v", line, err)
			}
			spans = append(spans, sp)
		}
		if len(spans) == 0 {
			t.Fatal("no spans emitted")
		}

		ids := map[uint64]obs.SpanRecord{}
		roots := 0
		for _, sp := range spans {
			if _, dup := ids[sp.ID]; dup {
				t.Fatalf("span ID %d emitted twice", sp.ID)
			}
			ids[sp.ID] = sp
			if sp.Parent == 0 {
				roots++
				if sp.Name != "run" {
					t.Errorf("root span %q, want run", sp.Name)
				}
			}
			if sp.DurNS < 0 || sp.StartNS < 0 {
				t.Errorf("span %s has negative time: %+v", sp.Name, sp)
			}
		}
		if roots != 1 {
			t.Fatalf("%d root spans, want 1", roots)
		}
		names := map[string]int{}
		for _, sp := range spans {
			names[sp.Name]++
			if sp.Parent != 0 {
				if _, ok := ids[sp.Parent]; !ok {
					t.Errorf("span %s parent %d never emitted", sp.Name, sp.Parent)
				}
			}
			if sp.Name == "group" {
				if p := ids[sp.Parent].Name; p != "sweep" {
					t.Errorf("%s: group span under %q, want sweep", plan.name, p)
				}
				if !strings.HasPrefix(sp.Detail, "region-") || sp.Items < 1 {
					t.Errorf("%s: group span without its region and members: %+v", plan.name, sp)
				}
			}
		}
		for _, want := range []string{"run", "sweep", "rpt"} {
			if names[want] == 0 {
				t.Errorf("%s: no %q span emitted (have %v)", plan.name, want, names)
			}
		}
		if names["fault"] != 0 {
			t.Errorf("%s: %d fault spans, want none", plan.name, names["fault"])
		}
		solvedIn := map[int]bool{}
		for _, r := range sum.Results {
			solvedIn[r.Group] = true
		}
		if names["group"] < len(solvedIn) {
			t.Errorf("%s: %d group spans for %d groups with solved faults", plan.name, names["group"], len(solvedIn))
		}
	}
}
