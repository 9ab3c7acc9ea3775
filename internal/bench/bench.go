// Package bench reads and writes the ISCAS .bench netlist format — the
// distribution format of the ISCAS85 combinational benchmark suite used in
// the paper's experiments. Only combinational primitives are supported
// (INPUT, OUTPUT, AND, OR, NAND, NOR, XOR, XNOR, NOT, BUF/BUFF); DFF and
// other sequential elements are rejected.
//
// The .bench format has no input-inversion bubbles, so the writer
// materializes any inversion flags as explicit NOT gates.
package bench

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"

	"atpgeasy/internal/ioguard"
	"atpgeasy/internal/logic"
)

var gateByName = map[string]logic.GateType{
	"AND":  logic.And,
	"OR":   logic.Or,
	"NAND": logic.Nand,
	"NOR":  logic.Nor,
	"XOR":  logic.Xor,
	"XNOR": logic.Xnor,
	"NOT":  logic.Not,
	"BUF":  logic.Buf,
	"BUFF": logic.Buf,
}

var nameByGate = map[logic.GateType]string{
	logic.And:  "AND",
	logic.Or:   "OR",
	logic.Nand: "NAND",
	logic.Nor:  "NOR",
	logic.Xor:  "XOR",
	logic.Xnor: "XNOR",
	logic.Not:  "NOT",
	logic.Buf:  "BUFF",
}

// recoverParse converts a panic escaping a parser — e.g. a circuit
// builder invariant violated by pathological input the explicit checks
// missed — into an ordinary parse error. Malformed files must never take
// down the caller.
func recoverParse(prefix string, err *error) {
	if r := recover(); r != nil {
		*err = fmt.Errorf("%s: malformed netlist: %v", prefix, r)
	}
}

// Read parses a .bench netlist. Malformed input yields an error with the
// offending line; it never panics.
func Read(r io.Reader, name string) (c *logic.Circuit, err error) {
	defer recoverParse("bench", &err)
	return read(r, name, 0)
}

// ReadCapped is Read with explicit pre-parse input caps for untrusted
// sources: input over maxBytes bytes is rejected with
// ioguard.ErrTooLarge before the parser sees it, and any single line
// over maxLine with ioguard.ErrLineTooLong (non-positive caps select
// the Read defaults: no byte cap, ioguard.DefaultMaxLine). The caps
// bound the parser's memory on pathological uploads — a multi-gigabyte
// file or a single unbounded line — which a recover barrier alone
// cannot.
func ReadCapped(r io.Reader, name string, maxBytes int64, maxLine int) (c *logic.Circuit, err error) {
	defer recoverParse("bench", &err)
	return read(ioguard.CapBytes(r, maxBytes), name, maxLine)
}

func read(r io.Reader, name string, maxLine int) (*logic.Circuit, error) {
	type gateLine struct {
		out, fn string
		ins     []string
		lineNo  int
	}
	var gates []gateLine
	var inputs, outputs []string
	sc := ioguard.Scanner(r, maxLine)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		switch {
		case declares(line, "INPUT"):
			arg, err := parens(line)
			if err != nil {
				return nil, fmt.Errorf("bench: line %d: %v", lineNo, err)
			}
			inputs = append(inputs, arg)
		case declares(line, "OUTPUT"):
			arg, err := parens(line)
			if err != nil {
				return nil, fmt.Errorf("bench: line %d: %v", lineNo, err)
			}
			outputs = append(outputs, arg)
		default:
			eq := strings.Index(line, "=")
			if eq < 0 {
				return nil, fmt.Errorf("bench: line %d: expected assignment, got %q", lineNo, line)
			}
			out := strings.TrimSpace(line[:eq])
			if out == "" {
				return nil, fmt.Errorf("bench: line %d: assignment with empty net name", lineNo)
			}
			rhs := strings.TrimSpace(line[eq+1:])
			open := strings.Index(rhs, "(")
			close_ := strings.LastIndex(rhs, ")")
			if open < 0 || close_ < open {
				return nil, fmt.Errorf("bench: line %d: malformed gate %q", lineNo, rhs)
			}
			fn := strings.ToUpper(strings.TrimSpace(rhs[:open]))
			var ins []string
			for _, tok := range strings.Split(rhs[open+1:close_], ",") {
				tok = strings.TrimSpace(tok)
				if tok != "" {
					ins = append(ins, tok)
				}
			}
			gates = append(gates, gateLine{out, fn, ins, lineNo})
		}
	}
	if err := ioguard.ScanErr("bench", sc.Err(), maxLine); err != nil {
		return nil, err
	}
	b := logic.NewBuilder(name)
	ids := map[string]int{}
	for _, in := range inputs {
		if _, dup := ids[in]; dup {
			return nil, fmt.Errorf("bench: duplicate input %q", in)
		}
		ids[in] = b.Input(in)
	}
	// Gates may be declared in any order: topologically sort by
	// repeatedly emitting ready gates.
	pending := append([]gateLine(nil), gates...)
	for len(pending) > 0 {
		progressed := false
		var next []gateLine
		for _, g := range pending {
			ready := true
			for _, in := range g.ins {
				if _, ok := ids[in]; !ok {
					ready = false
					break
				}
			}
			if !ready {
				next = append(next, g)
				continue
			}
			gt, ok := gateByName[g.fn]
			if !ok {
				return nil, fmt.Errorf("bench: line %d: unsupported gate type %q (sequential netlists are not supported)", g.lineNo, g.fn)
			}
			// Arity validation before construction: the circuit builder
			// treats wrong arity as a programmer error and panics, but here
			// it is just a malformed file.
			switch gt {
			case logic.Not, logic.Buf:
				if len(g.ins) != 1 {
					return nil, fmt.Errorf("bench: line %d: %s takes exactly one input, got %d", g.lineNo, g.fn, len(g.ins))
				}
			default:
				if len(g.ins) == 0 {
					return nil, fmt.Errorf("bench: line %d: %s with no inputs", g.lineNo, g.fn)
				}
			}
			if _, dup := ids[g.out]; dup {
				return nil, fmt.Errorf("bench: line %d: net %q driven twice", g.lineNo, g.out)
			}
			fanin := make([]int, len(g.ins))
			for i, in := range g.ins {
				fanin[i] = ids[in]
			}
			ids[g.out] = b.Gate(gt, g.out, fanin...)
			progressed = true
		}
		if !progressed {
			return nil, fmt.Errorf("bench: undriven nets or combinational cycle involving %q", next[0].out)
		}
		pending = next
	}
	for _, out := range outputs {
		id, ok := ids[out]
		if !ok {
			return nil, fmt.Errorf("bench: output %q is not driven", out)
		}
		b.MarkOutput(id)
	}
	return b.Build()
}

// declares reports whether line opens with keyword kw in any letter case,
// followed by "(" or " (": an INPUT or OUTPUT declaration. It compares in
// place, so a netlist's lines are not upper-cased to find out.
func declares(line, kw string) bool {
	if len(line) <= len(kw) || !strings.EqualFold(line[:len(kw)], kw) {
		return false
	}
	rest := line[len(kw):]
	return rest[0] == '(' || strings.HasPrefix(rest, " (")
}

func parens(line string) (string, error) {
	open := strings.Index(line, "(")
	close_ := strings.LastIndex(line, ")")
	if open < 0 || close_ < open {
		return "", fmt.Errorf("malformed declaration %q", line)
	}
	arg := strings.TrimSpace(line[open+1 : close_])
	if arg == "" {
		return "", fmt.Errorf("empty declaration %q", line)
	}
	return arg, nil
}

// Write emits the circuit as a .bench netlist. Inversion bubbles are
// materialized as NOT gates named <net>#not (deduplicated); constant
// drivers become self-feeding... constants are not representable in
// .bench, so they are rejected.
func Write(w io.Writer, c *logic.Circuit) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# %s — %d gates, %d inputs, %d outputs\n", c.Name, c.NumGates(), len(c.Inputs), len(c.Outputs))
	for _, in := range c.Inputs {
		fmt.Fprintf(bw, "INPUT(%s)\n", c.Nodes[in].Name)
	}
	for _, out := range c.Outputs {
		fmt.Fprintf(bw, "OUTPUT(%s)\n", c.Nodes[out].Name)
	}
	notEmitted := map[int]string{}
	notName := func(id int) string {
		if n, ok := notEmitted[id]; ok {
			return n
		}
		n := c.Nodes[id].Name + "#not"
		notEmitted[id] = n
		fmt.Fprintf(bw, "%s = NOT(%s)\n", n, c.Nodes[id].Name)
		return n
	}
	// Emit in topological order so inverters appear before use — the
	// reader resorts anyway, but this keeps the file human-readable.
	for _, id := range c.TopoOrder() {
		n := &c.Nodes[id]
		switch n.Type {
		case logic.Input:
			continue
		case logic.Const0, logic.Const1:
			return fmt.Errorf("bench: constant driver %q not representable in .bench", n.Name)
		}
		args := make([]string, len(n.Fanin))
		for i, f := range n.Fanin {
			if n.Negated(i) {
				args[i] = notName(f)
			} else {
				args[i] = c.Nodes[f].Name
			}
		}
		fmt.Fprintf(bw, "%s = %s(%s)\n", n.Name, nameByGate[n.Type], strings.Join(args, ", "))
	}
	return bw.Flush()
}

// sortedNames is a test helper-ish utility: the sorted node names of a
// circuit, useful for comparing interfaces after round trips.
func sortedNames(c *logic.Circuit, ids []int) []string {
	out := c.Names(ids)
	sort.Strings(out)
	return out
}

// SameInterface reports whether two circuits have the same input and
// output name sets (order-insensitive).
func SameInterface(a, b *logic.Circuit) bool {
	ai, bi := sortedNames(a, a.Inputs), sortedNames(b, b.Inputs)
	ao, bo := sortedNames(a, a.Outputs), sortedNames(b, b.Outputs)
	if len(ai) != len(bi) || len(ao) != len(bo) {
		return false
	}
	for i := range ai {
		if ai[i] != bi[i] {
			return false
		}
	}
	for i := range ao {
		if ao[i] != bo[i] {
			return false
		}
	}
	return true
}
