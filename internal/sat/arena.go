package sat

import "atpgeasy/internal/cnf"

// Arena holds the reusable scratch of the backtracking solvers: the
// assignment, clause counters, occurrence lists, digest state and the
// bounded sub-formula cache. A caller solving many formulas in sequence
// passes one Arena to SolveArena for each; buffers grow to the largest
// instance seen and are then reused allocation-free. An Arena must not
// be used by concurrent solves.
type Arena struct {
	bt backtracker

	assign   []cnf.Value
	satCnt   []int32
	falseCnt []int32
	occOff   []int32
	occ      []int32
	order    []int
	seen     []bool

	clsSum     []digest
	clsContrib []digest
	litDig     []digest

	table cacheTable
}

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{} }

// sized returns buf with length n, reusing its backing array when large
// enough; contents are unspecified.
func sized[T any](buf []T, n int) []T {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]T, n)
}

// zeroed returns buf with length n and all elements zeroed.
func zeroed[T any](buf []T, n int) []T {
	if cap(buf) >= n {
		buf = buf[:n]
		clear(buf)
		return buf
	}
	return make([]T, n)
}
