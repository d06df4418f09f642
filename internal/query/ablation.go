package query

import (
	"math/bits"

	"gqr/internal/index"
)

// This file holds the forms of GQR that do not serve: the paper's own
// heap-based generator (with its §5.3 shared-tree variant) and the
// naive-frontier ablation. They exist for three reasons — the abl-heap
// and abl-tree experiments regenerate from them, BenchmarkGQRGenerateBucket
// times the heap form beside the serving one in the same run, and the
// heap form is the order oracle the serving generator is tested against.

// GQRHeap is GQR as Algorithm 4 states it: the frontier of sorted
// flipping vectors is a binary min-heap keyed by QD, every pop pushes
// the Append and Swap children, and the bucket is recovered from the
// flipping vector on emission. It emits what GQR emits wherever QDs are
// distinct; among exactly equal QDs its order is an accident of heap
// shape.
//
// Sorted flipping vectors are packed into a uint64 whose bit j is the
// paper's v̄_{j+1}; the "rightmost non-zero entry" is the highest set
// bit, so Append and Swap are two bit operations each.
type GQRHeap struct {
	ix *index.Index

	// sharedTree enables the paper's §5.3 remark: because the
	// generation tree is query-independent, the Append/Swap children of
	// every node can be precomputed into an array indexed by the packed
	// vector, replacing the bit manipulation with two loads. Only
	// worthwhile (or affordable) for short codes; see the abl-tree
	// ablation.
	sharedTree *genTree
}

// NewGQRHeap builds the heap form of GQR over ix.
func NewGQRHeap(ix *index.Index) *GQRHeap { return &GQRHeap{ix: ix} }

// NewGQRSharedTree builds the heap form with the precomputed
// generation-tree array. Requires code length ≤ 24 (the array has 2^m
// entries).
func NewGQRSharedTree(ix *index.Index) *GQRHeap {
	return &GQRHeap{ix: ix, sharedTree: newGenTree(ix.Bits())}
}

// Name implements Method.
func (g *GQRHeap) Name() string {
	if g.sharedTree != nil {
		return "gqr-shared"
	}
	return "gqr-heap"
}

// QDScores implements Method.
func (*GQRHeap) QDScores() bool { return true }

// Start implements Method, recycling the sort buffers and the heap's
// node array.
func (g *GQRHeap) Start(t int, code uint64, costs []float64, reuse ProbeSequence) ProbeSequence {
	s, ok := reuse.(*gqrHeapSeq)
	if !ok || s == nil {
		s = &gqrHeapSeq{}
	}
	s.qcode = code
	s.m = g.ix.Tables[t].Hasher.Bits()
	s.tree = g.sharedTree
	s.heap.Reset()
	s.started = false
	s.order, s.sorted, s.origBit = sortCosts(costs[:s.m], s.order, s.sorted, s.origBit)
	return s
}

type gqrHeapSeq struct {
	qcode   uint64
	m       int
	order   []int     // sort scratch: bit index per sorted position
	sorted  []float64 // ascending |p_i(q)| values
	origBit []uint64  // sorted position -> original bit mask
	heap    flipHeap
	tree    *genTree
	started bool
}

// bucketOf maps a sorted flipping vector to its bucket code (Algorithm
// 3): flip the original bit of every set sorted position.
func (s *gqrHeapSeq) bucketOf(mask uint64) uint64 {
	code := s.qcode
	for mask != 0 {
		pos := bits.TrailingZeros64(mask)
		code ^= s.origBit[pos]
		mask &= mask - 1
	}
	return code
}

func (s *gqrHeapSeq) Next() (uint64, float64, bool) {
	if !s.started {
		// Algorithm 4 line 1-3: the first probe is bucket c(q) (the
		// all-zero flipping vector), and the heap is seeded with
		// v^r = (1,0,...,0).
		s.started = true
		if s.m > 0 {
			s.heap.Push(flipNode{mask: 1, dist: s.sorted[0]})
		}
		return s.qcode, 0, true
	}
	if s.heap.Len() == 0 {
		return 0, 0, false
	}
	node := s.heap.Pop()

	// Generate the two children (Algorithm 4 lines 6-12).
	if s.tree != nil {
		ap, sw := s.tree.children(node.mask)
		if ap != 0 {
			j := bits.Len64(node.mask) - 1 // index of the rightmost 1
			s.heap.Push(flipNode{mask: ap, dist: node.dist + s.sorted[j+1]})
			s.heap.Push(flipNode{mask: sw, dist: node.dist + s.sorted[j+1] - s.sorted[j]})
		}
	} else {
		j := bits.Len64(node.mask) - 1 // index of the rightmost 1
		if j+1 < s.m {
			hi := uint64(1) << uint(j+1)
			// Append: add a 1 to the right of the rightmost 1.
			s.heap.Push(flipNode{mask: node.mask | hi, dist: node.dist + s.sorted[j+1]})
			// Swap: move the rightmost 1 one position right.
			s.heap.Push(flipNode{mask: (node.mask &^ (1 << uint(j))) | hi, dist: node.dist + s.sorted[j+1] - s.sorted[j]})
		}
	}
	return s.bucketOf(node.mask), node.dist, true
}

// flipNode is one entry of the heap form's frontier: a sorted flipping
// vector (packed mask over sorted-projection positions) and its
// quantization distance.
type flipNode struct {
	mask uint64
	dist float64
}

// flipHeap is a binary min-heap of flipNodes keyed by dist, typed rather
// than container/heap so the comparison it offers is against the best
// heap one would write, not against interface dispatch.
type flipHeap struct {
	nodes []flipNode
}

func (h *flipHeap) Len() int { return len(h.nodes) }

func (h *flipHeap) Push(n flipNode) {
	h.nodes = append(h.nodes, n)
	i := len(h.nodes) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.nodes[p].dist <= h.nodes[i].dist {
			break
		}
		h.nodes[p], h.nodes[i] = h.nodes[i], h.nodes[p]
		i = p
	}
}

func (h *flipHeap) Pop() flipNode {
	top := h.nodes[0]
	last := len(h.nodes) - 1
	h.nodes[0] = h.nodes[last]
	h.nodes = h.nodes[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < last && h.nodes[l].dist < h.nodes[smallest].dist {
			smallest = l
		}
		if r < last && h.nodes[r].dist < h.nodes[smallest].dist {
			smallest = r
		}
		if smallest == i {
			return top
		}
		h.nodes[i], h.nodes[smallest] = h.nodes[smallest], h.nodes[i]
		i = smallest
	}
}

// Reset empties the heap, retaining capacity for reuse across queries.
func (h *flipHeap) Reset() { h.nodes = h.nodes[:0] }

// genTree is the precomputed generation tree of the §5.3 remark: for
// every packed sorted flipping vector, the Append and Swap children (0
// when the node is a leaf). The tree depends only on the code length, so
// one array serves all queries and tables.
type genTree struct {
	m       int
	childAp []uint64
	childSw []uint64
}

const maxSharedTreeBits = 24

func newGenTree(m int) *genTree {
	if m > maxSharedTreeBits {
		panic("query: shared generation tree limited to 24-bit codes")
	}
	size := uint64(1) << uint(m)
	t := &genTree{m: m, childAp: make([]uint64, size), childSw: make([]uint64, size)}
	for mask := uint64(1); mask < size; mask++ {
		j := bits.Len64(mask) - 1
		if j+1 < m {
			hi := uint64(1) << uint(j+1)
			t.childAp[mask] = mask | hi
			t.childSw[mask] = (mask &^ (1 << uint(j))) | hi
		}
	}
	return t
}

func (t *genTree) children(mask uint64) (ap, sw uint64) {
	return t.childAp[mask], t.childSw[mask]
}

// GQRNaive is the ablation counterpart of GQRHeap (abl-heap in
// DESIGN.md): identical semantics, but the frontier of candidate
// flipping vectors is a plain slice scanned linearly for its minimum at
// every step instead of a min-heap. It quantifies what the paper's heap
// buys.
type GQRNaive struct {
	ix *index.Index
}

// NewGQRNaive builds the naive-frontier variant of GQR over ix.
func NewGQRNaive(ix *index.Index) *GQRNaive { return &GQRNaive{ix: ix} }

// Name implements Method.
func (*GQRNaive) Name() string { return "gqr-naive" }

// QDScores implements Method.
func (*GQRNaive) QDScores() bool { return true }

// Start implements Method, recycling the same buffers as the heap form
// plus the naive frontier slice.
func (g *GQRNaive) Start(t int, code uint64, costs []float64, reuse ProbeSequence) ProbeSequence {
	s, ok := reuse.(*gqrNaiveSeq)
	if !ok || s == nil {
		s = &gqrNaiveSeq{}
	}
	s.qcode = code
	s.m = g.ix.Tables[t].Hasher.Bits()
	s.frontier = s.frontier[:0]
	s.started = false
	s.order, s.sorted, s.origBit = sortCosts(costs[:s.m], s.order, s.sorted, s.origBit)
	return s
}

// gqrNaiveSeq is gqrHeapSeq's projected-vector state with a plain slice
// for a frontier (the embedded heap stays empty).
type gqrNaiveSeq struct {
	gqrHeapSeq
	frontier []flipNode
}

func (s *gqrNaiveSeq) Next() (uint64, float64, bool) {
	if !s.started {
		s.started = true
		if s.m > 0 {
			s.frontier = append(s.frontier, flipNode{mask: 1, dist: s.sorted[0]})
		}
		return s.qcode, 0, true
	}
	if len(s.frontier) == 0 {
		return 0, 0, false
	}
	// Linear scan for the minimum — the cost the heap avoids.
	best := 0
	for i := 1; i < len(s.frontier); i++ {
		if s.frontier[i].dist < s.frontier[best].dist {
			best = i
		}
	}
	node := s.frontier[best]
	s.frontier[best] = s.frontier[len(s.frontier)-1]
	s.frontier = s.frontier[:len(s.frontier)-1]

	j := bits.Len64(node.mask) - 1
	if j+1 < s.m {
		hi := uint64(1) << uint(j+1)
		s.frontier = append(s.frontier,
			flipNode{mask: node.mask | hi, dist: node.dist + s.sorted[j+1]},
			flipNode{mask: (node.mask &^ (1 << uint(j))) | hi, dist: node.dist + s.sorted[j+1] - s.sorted[j]})
	}
	return s.bucketOf(node.mask), node.dist, true
}
