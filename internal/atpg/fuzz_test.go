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
)

// FuzzEngineDifferential runs region groups on the incremental core
// against the reference Miter on small netlists: TestFault builds each
// fault's instance with NewMiter and Miter.Encode and solves it one-shot,
// sharing no code with the engine's formula encoder. Neither may report
// an error or an Errored fault, their verdicts must agree fault by fault
// wherever neither aborted, and every Untestable verdict is refuted
// against all 2^n input patterns by reference fault simulation. Both
// paths re-simulate every detected vector before reporting it.
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
		eng := &Engine{Workers: 2}
		grouped, err := eng.Run(context.Background(), c, RunOptions{Collapse: true})
		if err != nil {
			t.Fatalf("region groups: %v", err)
		}
		words := exhaustivePatternWords(len(c.Inputs))
		for _, g := range grouped.Results {
			name := g.Fault.Name(c)
			s, err := eng.TestFault(c, g.Fault)
			if err != nil {
				t.Fatalf("TestFault %s: %v", name, err)
			}
			if g.Status == Errored {
				t.Fatalf("%s errored: %q", name, g.Err)
			}
			if g.Status != Aborted && s.Status != Aborted && g.Status != s.Status {
				t.Fatalf("%s: %v grouped, %v by TestFault", name, g.Status, s.Status)
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
