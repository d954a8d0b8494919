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
// Data is stored row-major in one contiguous slab, block-distributed:
// node n's local section is flat indices [offsets[n], offsets[n+1]) of
// it. Real values are carried so reductions and examples produce
// checkable results.
type Array struct {
	ID    ArrayID
	Name  string
	Shape []int

	// data is the whole array; offsets (len nodes+1) tiles it into the
	// nodes' sections.
	data    []float64
	offsets []int

	freed bool
}

// Size returns the total element count.
func (a *Array) Size() int { return a.offsets[len(a.offsets)-1] }

// Rank returns the number of dimensions.
func (a *Array) Rank() int { return len(a.Shape) }

// LocalLen returns the number of elements node n holds.
func (a *Array) LocalLen(n int) int { return a.offsets[n+1] - a.offsets[n] }

// Local returns node n's section as a live view of the array's storage:
// what an elementwise kernel reads its operands through. The view is
// capacity-clipped, so appending to it cannot reach a neighbour's
// section.
func (a *Array) Local(n int) []float64 {
	lo, hi := a.offsets[n], a.offsets[n+1]
	return a.data[lo:hi:hi]
}

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
	nodes := len(a.offsets) - 1
	out := make([]Subregion, 0, nodes)
	for n := 0; n < nodes; n++ {
		out = append(out, Subregion{Node: n, Lo: a.offsets[n], Hi: a.offsets[n+1]})
	}
	return out
}

// HomeNode returns the node owning flat index i (the last node for an
// index past the end). It is blockOffsets in closed form: the first
// size%nodes sections hold size/nodes+1 elements, the rest size/nodes.
func (a *Array) HomeNode(i int) int {
	size, nodes := a.Size(), len(a.offsets)-1
	if i >= size {
		return nodes - 1
	}
	base, extra := size/nodes, size%nodes
	if wide := extra * (base + 1); i >= wide {
		return extra + (i-wide)/base
	}
	return i / (base + 1)
}

// At reads the element at flat index i. It is host-side access for
// tests and presentation: it costs no simulated time.
func (a *Array) At(i int) float64 { return a.data[i] }

// Flat copies the whole array into one slice (host-side access, like At).
func (a *Array) Flat() []float64 { return append([]float64(nil), a.data...) }

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
