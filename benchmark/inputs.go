package main

import (
	"bytes"
	"fmt"
	"math/rand"

	"atpgeasy/internal/bench"
	"atpgeasy/internal/gen"
	"atpgeasy/internal/logic"
)

// netlist is one generated input: the .bench bytes the program receives
// and the name it is run or submitted under.
type netlist struct {
	Name  string
	Bench []byte
}

// Input sizing. Each workload's list length is derived from --seconds and
// these rates, never from a clock, so a seed and a --seconds value always
// give byte-identical inputs and identical work. The rates were set so
// that all of a run's untraced passes take about --seconds on a 2-vCPU
// host; a slower host just takes longer.
const (
	// redundant-logic: seeded gen.Random control logic on a fixed ladder
	// of gate counts, so the seed changes structure, not size.
	rlPerSecond            = 7
	rlMinGates, rlMaxGates = 60, 120

	// resistant-datapath: comparators on a width ladder moved by a seeded
	// jitter, plus one wide decoder.
	rdPerSecond            = 0.25
	rdMinWidth, rdMaxWidth = 48, 128
	rdJitter               = 3
	rdDecoderInputs        = 10

	// daemon-mix: one job in dmHardEvery comes from the hard tail.
	dmPerSecond = 7
	dmMinJobs   = 200
	dmHardEvery = 4
	dmOrderSeed = 1
)

// makeInputs generates the workload's netlists from seed.
func makeInputs(workload string, seed int64, secs int) ([]netlist, error) {
	rng := rand.New(rand.NewSource(seed))
	var cs []*logic.Circuit
	switch workload {
	case "redundant-logic":
		cs = redundantLogic(rng, max(2, rlPerSecond*secs))
	case "resistant-datapath":
		cs = resistantDatapath(rng, max(2, int(rdPerSecond*float64(secs)+0.5)))
	case "daemon-mix":
		cs = daemonMix(rng, max(dmMinJobs, dmPerSecond*secs))
	default:
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	out := make([]netlist, len(cs))
	for i, c := range cs {
		var b bytes.Buffer
		if err := bench.Write(&b, c); err != nil {
			return nil, fmt.Errorf("write %s: %w", c.Name, err)
		}
		out[i] = netlist{Name: c.Name, Bench: b.Bytes()}
	}
	return out, nil
}

// randomLogic is seeded random control logic with the input count the
// CLI's rand<N> generator uses.
func randomLogic(rng *rand.Rand, name string, gates int) *logic.Circuit {
	return gen.Random(gen.RandomParams{Name: name, Inputs: 8 + gates/20, Gates: gates, Seed: rng.Int63()})
}

// redundantLogic is n random netlists whose gate counts step evenly from
// rlMinGates to rlMaxGates.
func redundantLogic(rng *rand.Rand, n int) []*logic.Circuit {
	cs := make([]*logic.Circuit, n)
	for i := range cs {
		g := rlMinGates + (rlMaxGates-rlMinGates)*i/(n-1)
		cs[i] = randomLogic(rng, fmt.Sprintf("rl%03d_g%d", i, g), g)
	}
	return cs
}

// resistantDatapath is n magnitude comparators whose widths step from
// rdMinWidth to rdMaxWidth, each moved by a seeded jitter, followed by
// one rdDecoderInputs-to-2^n decoder.
func resistantDatapath(rng *rand.Rand, n int) []*logic.Circuit {
	cs := make([]*logic.Circuit, 0, n+1)
	for i := 0; i < n; i++ {
		w := rdMinWidth + (rdMaxWidth-rdMinWidth)*i/(n-1) + rng.Intn(2*rdJitter+1) - rdJitter
		c := gen.Comparator(w)
		c.Name = fmt.Sprintf("cmp%d_%02d", w, i)
		cs = append(cs, c)
	}
	d := gen.Decoder(rdDecoderInputs)
	d.Name = fmt.Sprintf("dec%d", rdDecoderInputs)
	return append(cs, d)
}

// easyJobs is the random-pattern-easy catalogue of daemon-mix: small
// arithmetic and structure that the random-pattern pre-phase retires
// almost entirely.
var easyJobs = []struct {
	family string
	n      int
}{
	{"mult", 5}, {"mult", 6}, {"mult", 7},
	{"cla", 16}, {"cla", 32}, {"cla", 48}, {"cla", 64},
	{"alu", 8}, {"alu", 12}, {"alu", 16},
	{"ripple", 16}, {"ripple", 32}, {"ripple", 48}, {"ripple", 64},
	{"parity", 32}, {"parity", 64}, {"parity", 96}, {"parity", 128},
	{"dec", 5}, {"dec", 6}, {"dec", 7}, {"dec", 8},
}

// daemonMix is n job netlists. One in dmHardEvery comes from the hard
// tail, alternating seeded random logic of 60–120 gates (with untestable
// faults) and comparators of 16–40 bits; the rest cycle through
// easyJobs, so the easy share and its work are the same for every seed
// and identical netlists recur — which must return identical results.
// The seed draws the random logic. The order is one fixed shuffle for
// every seed, so how jobs pair up in the closed loop does not change
// with the seed.
func daemonMix(rng *rand.Rand, n int) []*logic.Circuit {
	cs := make([]*logic.Circuit, n)
	hard, easy := 0, 0
	for i := range cs {
		var c *logic.Circuit
		switch {
		case i%dmHardEvery != 0:
			e := easyJobs[easy%len(easyJobs)]
			easy++
			c = easyCircuit(e.family, e.n)
			c.Name = fmt.Sprintf("%s%d", e.family, e.n)
		case hard%2 == 0:
			g := 60 + (hard/2%16)*4
			c = randomLogic(rng, fmt.Sprintf("rand%d_%04d", g, i), g)
			hard++
		default:
			w := 16 + (hard/2%7)*4
			c = gen.Comparator(w)
			c.Name = fmt.Sprintf("cmp%d", w)
			hard++
		}
		cs[i] = c
	}
	order := rand.New(rand.NewSource(dmOrderSeed))
	order.Shuffle(n, func(a, b int) { cs[a], cs[b] = cs[b], cs[a] })
	return cs
}

func easyCircuit(family string, n int) *logic.Circuit {
	switch family {
	case "mult":
		return gen.ArrayMultiplier(n)
	case "cla":
		return gen.CarryLookaheadAdder(n)
	case "alu":
		return gen.ALU(n)
	case "ripple":
		return gen.RippleAdder(n)
	case "parity":
		return gen.ParityTree(n)
	default:
		return gen.Decoder(n)
	}
}
