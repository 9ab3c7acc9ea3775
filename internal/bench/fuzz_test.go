package bench

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"atpgeasy/internal/ioguard"
)

// TestMalformedBenchErrors pins the parser's no-panic contract on the
// inputs that used to reach the circuit builder's panics.
func TestMalformedBenchErrors(t *testing.T) {
	cases := map[string]string{
		"not-arity":     "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NOT(a, b)\n",
		"buf-arity":     "INPUT(a)\nOUTPUT(y)\ny = BUFF(a, a)\n",
		"zero-fanin":    "INPUT(a)\nOUTPUT(y)\ny = AND()\n",
		"empty-out":     "INPUT(a)\n = AND(a)\n",
		"no-assignment": "INPUT(a)\njunk line\n",
		"double-driven": "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\ny = BUFF(a)\n",
		"cycle":         "INPUT(a)\nOUTPUT(y)\ny = AND(a, z)\nz = AND(a, y)\n",
	}
	for name, src := range cases {
		if _, err := Read(strings.NewReader(src), name); err == nil {
			t.Errorf("%s: Read accepted malformed input", name)
		}
	}
}

// TestReadCapped pins the pre-parse admission bounds: oversized input
// and over-long lines are rejected with the ioguard sentinels before
// the parser buffers them, and the same input passes with caps off.
func TestReadCapped(t *testing.T) {
	good := "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n"
	if _, err := ReadCapped(strings.NewReader(good), "t", 1<<10, 1<<10); err != nil {
		t.Fatalf("capped read of valid netlist: %v", err)
	}
	// Exactly at the byte cap is accepted; one byte over is not.
	if _, err := ReadCapped(strings.NewReader(good), "t", int64(len(good)), 0); err != nil {
		t.Fatalf("read at exact byte cap: %v", err)
	}
	_, err := ReadCapped(strings.NewReader(good), "t", int64(len(good))-1, 0)
	if !errors.Is(err, ioguard.ErrTooLarge) {
		t.Fatalf("over byte cap: got %v, want ErrTooLarge", err)
	}
	long := "# " + strings.Repeat("x", 4096) + "\n" + good
	_, err = ReadCapped(strings.NewReader(long), "t", 0, 256)
	if !errors.Is(err, ioguard.ErrLineTooLong) {
		t.Fatalf("over line cap: got %v, want ErrLineTooLong", err)
	}
	if _, err := ReadCapped(strings.NewReader(long), "t", 0, 0); err != nil {
		t.Fatalf("uncapped read of long-comment netlist: %v", err)
	}
}

// TestReadSmallNetlistAllocatesLittle: parsing a small netlist must cost
// memory in proportion to the netlist, not a fixed line buffer sized for
// the largest line the caps allow.
func TestReadSmallNetlistAllocatesLittle(t *testing.T) {
	data, err := os.ReadFile("../../examples/netlists/c17.bench")
	if err != nil {
		t.Fatal(err)
	}
	const parses = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for k := 0; k < parses; k++ {
		if _, err := Read(bytes.NewReader(data), "c17"); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / parses; per >= 64<<10 {
		t.Fatalf("c17 parse allocates %d bytes, want < 64 KiB", per)
	}
}

// FuzzParseBench hunts for panics and round-trip breaks: any netlist the
// parser accepts must re-emit and re-parse with the same interface.
func FuzzParseBench(f *testing.F) {
	seeds, err := filepath.Glob("../../examples/netlists/*.bench")
	if err != nil || len(seeds) == 0 {
		f.Fatalf("no seed corpus: %v", err)
	}
	for _, p := range seeds {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(data))
	}
	f.Add("INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n")
	f.Add("y = AND()\n")
	f.Add("INPUT(a)\nOUTPUT(y)\ny = NOT(a, a)\n")
	// Pathological shapes the ingestion caps exist for: one enormous
	// line, an oversized body of comments, a gate with a huge fan-in
	// list, and a net name that is itself most of the input.
	f.Add("y = AND(" + strings.Repeat("a,", 1<<12) + "a)\n")
	f.Add("# " + strings.Repeat("x", 1<<13) + "\nINPUT(a)\nOUTPUT(y)\ny = BUFF(a)\n")
	f.Add("INPUT(" + strings.Repeat("n", 1<<13) + ")\n")
	f.Add(strings.Repeat("INPUT(a)\n", 1<<10))
	f.Fuzz(func(t *testing.T, src string) {
		// The capped entry point is the one servers use; generous caps
		// keep real seeds parsing while pathological ones must reject
		// cleanly, never panic or OOM.
		c, err := ReadCapped(strings.NewReader(src), "fuzz", 1<<20, 1<<16)
		if err != nil {
			return // rejected cleanly — exactly what malformed input should get
		}
		var buf bytes.Buffer
		if err := Write(&buf, c); err != nil {
			return // e.g. constant drivers, honestly unrepresentable
		}
		c2, err := Read(&buf, "fuzz")
		if err != nil {
			t.Fatalf("accepted netlist fails to re-parse after Write: %v\n%s", err, buf.String())
		}
		if !SameInterface(c, c2) {
			t.Fatalf("interface changed across a write/read round trip\n%s", buf.String())
		}
	})
}
