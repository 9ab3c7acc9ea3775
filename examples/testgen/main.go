// Test generation for a realistic datapath block: build a 16-bit ALU,
// technology-decompose it the way TEGUS requires, run full-fault ATPG with
// collapsing and fault-simulation compaction, and emit the production
// artifacts (test vectors + a .bench netlist for the tester).
package main

import (
	"fmt"
	"log"
	"os"
	"strings"

	"atpgeasy"
	"atpgeasy/internal/gen"
)

func main() {
	alu := gen.ALU(16)
	fmt.Println("design:", alu)

	// TEGUS maps to simple ≤3-input AND/OR gates before building SAT
	// formulas; so do we.
	mapped, err := atpgeasy.Decompose(alu, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("after tech_decomp:", mapped)

	all := atpgeasy.AllFaults(mapped)
	collapsed := atpgeasy.CollapseFaults(mapped, all)
	fmt.Printf("fault list: %d stuck-at faults, %d after structural collapsing (%.0f%%)\n",
		len(all), len(collapsed), 100*float64(len(collapsed))/float64(len(all)))

	sum, err := atpgeasy.RunATPG(mapped)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ATPG: %d solver calls, %d dropped by fault simulation, SAT time %v\n",
		len(sum.Results), sum.DroppedByFaultSim, sum.Phases.Solve)
	fmt.Printf("coverage of testable faults: %.2f%%  (%d untestable/redundant faults found)\n",
		100*sum.Coverage(), sum.Untestable)
	fmt.Printf("compacted test set: %d vectors for %d faults\n", len(sum.Vectors), sum.Total)

	// Largest SAT instances of the run — the Figure 1 tail.
	maxVars, maxIdx := 0, -1
	for i, r := range sum.Results {
		if r.Vars > maxVars {
			maxVars, maxIdx = r.Vars, i
		}
	}
	if maxIdx >= 0 {
		r := sum.Results[maxIdx]
		fmt.Printf("largest ATPG-SAT instance: %s — %d vars, %d clauses, %v\n",
			r.Fault.Name(mapped), r.Vars, r.Clauses, r.Elapsed)
	}

	// Write tester artifacts.
	if err := writeVectors("alu16_tests.txt", mapped, sum.Vectors); err != nil {
		log.Fatal(err)
	}
	f, err := os.Create("alu16_mapped.bench")
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if err := atpgeasy.WriteBench(f, mapped); err != nil {
		log.Fatal(err)
	}
	fmt.Println("wrote alu16_tests.txt and alu16_mapped.bench")
}

func writeVectors(path string, c *atpgeasy.Circuit, vectors [][]bool) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	fmt.Fprintf(f, "# inputs: %s\n", strings.Join(c.Names(c.Inputs), " "))
	for _, v := range vectors {
		row := make([]byte, len(v))
		for i, bit := range v {
			row[i] = '0'
			if bit {
				row[i] = '1'
			}
		}
		fmt.Fprintf(f, "%s\n", row)
	}
	return nil
}
