package atpg

import (
	"bytes"
	"context"
	"os"
	"testing"

	"atpgeasy/internal/bench"
	"atpgeasy/internal/decomp"
	"atpgeasy/internal/faultsim"
	"atpgeasy/internal/gen"
	"atpgeasy/internal/sat"
)

// FuzzEngineDifferential runs the engine's two dispatch kinds against
// each other on small netlists: region groups on the incremental core
// (the nil solver) and one-fault groups solved one-shot (learning-free
// DPLL). Neither run may report an error or an Errored fault, their
// verdicts must agree fault by fault wherever neither aborted, and every
// Untestable verdict is refuted against all 2^n input patterns by
// reference fault simulation. Detected vectors are re-simulated by
// VerifyTests.
func FuzzEngineDifferential(f *testing.F) {
	c17, err := os.ReadFile("../../examples/netlists/c17.bench")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(c17)
	for _, net := range collisionNets {
		f.Add(collisionBench(net))
	}
	for _, p := range []gen.RandomParams{
		{Inputs: 6, Gates: 24, Seed: 1},
		{Inputs: 9, Gates: 40, Seed: 2},
	} {
		var buf bytes.Buffer
		if err := bench.Write(&buf, gen.Random(p)); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, netlist []byte) {
		c, err := bench.Read(bytes.NewReader(netlist), "fuzz")
		if err != nil {
			return
		}
		c, err = decomp.Decompose(c, 3)
		if err != nil || len(c.Inputs) > 12 || c.NumNodes() > 100 {
			return
		}
		opt := RunOptions{Collapse: true}
		grouped, err := (&Engine{VerifyTests: true, Workers: 2}).Run(context.Background(), c, opt)
		if err != nil {
			t.Fatalf("region groups: %v", err)
		}
		single, err := (&Engine{Solver: &sat.DPLL{DisableLearning: true}, VerifyTests: true, Workers: 2}).Run(context.Background(), c, opt)
		if err != nil {
			t.Fatalf("one-fault groups: %v", err)
		}
		if len(grouped.Results) != len(single.Results) {
			t.Fatalf("%d results grouped, %d one-fault", len(grouped.Results), len(single.Results))
		}
		words := exhaustivePatternWords(len(c.Inputs))
		for k, g := range grouped.Results {
			s := single.Results[k]
			name := g.Fault.Name(c)
			if g.Fault != s.Fault {
				t.Fatalf("result %d: fault %s grouped, %s one-fault", k, name, s.Fault.Name(c))
			}
			if g.Status == Errored || s.Status == Errored {
				t.Fatalf("%s errored: %q / %q", name, g.Err, s.Err)
			}
			if g.Status != Aborted && s.Status != Aborted && g.Status != s.Status {
				t.Fatalf("%s: %v grouped, %v one-fault", name, g.Status, s.Status)
			}
			if g.Status != Untestable && s.Status != Untestable {
				continue
			}
			for _, w := range words {
				if faultsim.ReferenceDetects(c, w, 64, g.Fault.Net, g.Fault.StuckAt) != 0 {
					t.Fatalf("%s: untestable, but an input pattern detects it", name)
				}
			}
		}
	})
}
