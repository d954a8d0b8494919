package cmrts

import (
	"fmt"
	"strconv"
	"strings"
)

// ArrayID uniquely identifies a parallel array instance for the lifetime
// of a run. IDs are minted by the runtime ("pvar3") the way CMRTS handed
// Paradyn "the proper CMRTS identifier" for each allocated array.
type ArrayID string

// Array is a parallel array distributed across the partition's nodes.
// Arrays are the fundamental source of parallelism in data-parallel CM
// Fortran: they are the only data objects that use memory on the nodes,
// and program performance depends on the efficiency of their computation
// and communication (Section 6.1).
//
// Data is stored row-major, block-distributed as contiguous flat chunks:
// node n holds flat indices [Offsets[n], Offsets[n+1]). Real values are
// carried so reductions and examples produce checkable results.
type Array struct {
	ID    ArrayID
	Name  string
	Shape []int

	// chunks[n] is node n's local section; offsets has len nodes+1.
	chunks  [][]float64
	offsets []int

	freed bool
}

// Size returns the total element count.
func (a *Array) Size() int { return a.offsets[len(a.offsets)-1] }

// Rank returns the number of dimensions.
func (a *Array) Rank() int { return len(a.Shape) }

// LocalLen returns the number of elements node n holds.
func (a *Array) LocalLen(n int) int { return len(a.chunks[n]) }

// Subregion describes which contiguous flat slice of the array one node
// stores — the data-to-processor mapping the runtime reports to the tool
// when the array is allocated.
type Subregion struct {
	Node int
	Lo   int // inclusive flat index
	Hi   int // exclusive flat index
}

// String renders e.g. "node2:[512,768)".
func (s Subregion) String() string {
	return fmt.Sprintf("node%d:[%d,%d)", s.Node, s.Lo, s.Hi)
}

// Subregions returns the data-to-node mapping.
func (a *Array) Subregions() []Subregion {
	out := make([]Subregion, 0, len(a.chunks))
	for n := range a.chunks {
		out = append(out, Subregion{Node: n, Lo: a.offsets[n], Hi: a.offsets[n+1]})
	}
	return out
}

// HomeNode returns the node owning flat index i.
func (a *Array) HomeNode(i int) int {
	for n := 0; n+1 < len(a.offsets); n++ {
		if i < a.offsets[n+1] {
			return n
		}
	}
	return len(a.chunks) - 1
}

// At reads the element at flat index i (test/debug access; does not cost
// simulated time).
func (a *Array) At(i int) float64 {
	n := a.HomeNode(i)
	return a.chunks[n][i-a.offsets[n]]
}

// setAt writes the element at flat index i.
func (a *Array) setAt(i int, v float64) {
	n := a.HomeNode(i)
	a.chunks[n][i-a.offsets[n]] = v
}

// Flat copies the whole array into one slice (test/debug access).
func (a *Array) Flat() []float64 {
	out := make([]float64, 0, a.Size())
	for _, c := range a.chunks {
		out = append(out, c...)
	}
	return out
}

// shapeString renders "1024x1024".
func shapeString(shape []int) string {
	var b strings.Builder
	for i, d := range shape {
		if i > 0 {
			b.WriteByte('x')
		}
		b.WriteString(strconv.Itoa(d))
	}
	return b.String()
}

// blockOffsets splits size elements into nodes balanced contiguous
// chunks: the first size%nodes chunks get one extra element.
func blockOffsets(size, nodes int) []int {
	offsets := make([]int, nodes+1)
	base := size / nodes
	extra := size % nodes
	pos := 0
	for n := 0; n < nodes; n++ {
		offsets[n] = pos
		pos += base
		if n < extra {
			pos++
		}
	}
	offsets[nodes] = pos
	return offsets
}

// applyPermutation rewrites the array's data so element old[i] lands at
// flat index perm(i). perm must be a bijection on [0, Size).
func applyPermutation(a *Array, perm func(int) int) {
	old := a.Flat()
	for i, v := range old {
		a.setAt(perm(i), v)
	}
}
