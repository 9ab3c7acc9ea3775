package main

import (
	"fmt"
	"runtime"
	"sync"

	"atpgeasy/internal/atpg"
	"atpgeasy/internal/faultsim"
	"atpgeasy/internal/logic"
)

// claim is what a run reported for one netlist: the collapsed fault count,
// how many of those faults its vectors detect, which faults it declared
// untestable, and the vectors themselves.
type claim struct {
	Total int
	// Detected is Detected + DetectedByRPT + DroppedByFaultSim.
	Detected   int
	Untestable []atpg.Fault
	// UntestableCount is the untestable count the run reported beside
	// the list.
	UntestableCount int
	Vectors         [][]bool
}

// collapsedFaults rebuilds the fault list the default flow and the daemon
// both run on: equivalence then dominance collapsing of every stuck-at
// fault.
func collapsedFaults(c *logic.Circuit) []atpg.Fault {
	return atpg.CollapseDominance(c, atpg.Collapse(c, atpg.AllFaults(c)))
}

// checkClaim is the output check. It does not use the engine's
// event-driven simulator: every fault of the rebuilt list is re-simulated
// against the vectors with faultsim.ReferenceDetects, a full 64-way
// re-simulation of the faulty circuit. The detected count must equal the
// claimed one, and no fault declared untestable may be detected.
func checkClaim(c *logic.Circuit, faults []atpg.Fault, cl claim) error {
	if cl.Total != len(faults) {
		return fmt.Errorf("reported %d faults, the collapsed list has %d", cl.Total, len(faults))
	}
	batches, err := packVectors(len(c.Inputs), cl.Vectors)
	if err != nil {
		return err
	}
	detected := referenceDetected(c, faults, batches)
	index := make(map[atpg.Fault]int, len(faults))
	n := 0
	for i, f := range faults {
		index[f] = i
		if detected[i] {
			n++
		}
	}
	if n != cl.Detected {
		return fmt.Errorf("vectors detect %d faults, the run claimed %d", n, cl.Detected)
	}
	for _, f := range cl.Untestable {
		i, ok := index[f]
		if !ok {
			return fmt.Errorf("fault %s declared untestable is not in the collapsed list", f)
		}
		if detected[i] {
			return fmt.Errorf("fault %s declared untestable is detected by the vectors", f)
		}
	}
	return nil
}

// referenceDetected reports, per fault, whether any batch detects it. The
// faults are split over GOMAXPROCS goroutines; the check runs outside the
// timed window.
func referenceDetected(c *logic.Circuit, faults []atpg.Fault, batches []patternBatch) []bool {
	detected := make([]bool, len(faults))
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(faults); i += workers {
				for _, b := range batches {
					if faultsim.ReferenceDetects(c, b.inputs, b.n, faults[i].Net, faults[i].StuckAt) != 0 {
						detected[i] = true
						break
					}
				}
			}
		}(w)
	}
	wg.Wait()
	return detected
}

// patternBatch is up to 64 vectors in bit-parallel form: bit p of
// inputs[i] is input i of vector p.
type patternBatch struct {
	inputs []uint64
	n      int
}

func packVectors(nInputs int, vectors [][]bool) ([]patternBatch, error) {
	var out []patternBatch
	for lo := 0; lo < len(vectors); lo += 64 {
		b := patternBatch{inputs: make([]uint64, nInputs)}
		for p, v := range vectors[lo:min(lo+64, len(vectors))] {
			if len(v) != nInputs {
				return nil, fmt.Errorf("vector %d has %d bits, the circuit has %d inputs", lo+p, len(v), nInputs)
			}
			for i, bit := range v {
				if bit {
					b.inputs[i] |= 1 << uint(p)
				}
			}
			b.n++
		}
		out = append(out, b)
	}
	return out, nil
}
