package query

import (
	"math/bits"

	"gqr/internal/index"
)

// GQR is the paper's generate-to-probe QD ranking (Algorithms 2-4). Per
// query it:
//
//  1. computes the projected vector once and sorts the per-bit flipping
//     costs ascending (the sorted projected vector p̄, Definition 3,
//     with the f mapping back to original bit positions);
//  2. probes c(q) itself first, then maintains a min-heap of sorted
//     flipping vectors seeded with v^r = (1,0,...,0);
//  3. on each demand pops the minimum-QD vector, emits its bucket, and
//     pushes its two generation-tree children, Append and Swap, whose
//     QDs derive from the parent's in O(1) (Property 2).
//
// Property 1 (each flipping vector appears exactly once in the tree)
// plus Property 2 (children QDs ≥ parent QD) make the emission order
// exactly ascending QD, i.e. GQR is semantically identical to QR with no
// up-front sort. The heap holds at most i nodes at step i.
//
// Sorted flipping vectors are packed into a uint64 whose bit j is the
// paper's v̄_{j+1}; the "rightmost non-zero entry" is the highest set
// bit, so Append and Swap are two bit operations each.
type GQR struct {
	ix *index.Index

	// sharedTree enables the paper's §5.3 remark: because the
	// generation tree is query-independent, the Append/Swap children of
	// every node can be precomputed into an array indexed by the packed
	// vector, replacing the bit manipulation with two loads. Only
	// worthwhile (or affordable) for short codes; see the abl-tree
	// ablation.
	sharedTree *genTree
}

// NewGQR builds generate-to-probe QD ranking over ix.
func NewGQR(ix *index.Index) *GQR { return &GQR{ix: ix} }

// NewGQRSharedTree builds GQR with the precomputed generation-tree
// array. Requires code length ≤ 24 (the array has 2^m entries).
func NewGQRSharedTree(ix *index.Index) *GQR {
	g := &GQR{ix: ix}
	g.sharedTree = newGenTree(ix.Bits())
	return g
}

// Name implements Method.
func (g *GQR) Name() string {
	if g.sharedTree != nil {
		return "gqr-shared"
	}
	return "gqr"
}

// QDScores implements Method.
func (*GQR) QDScores() bool { return true }

// Start implements Method: sort the flipping costs into the sorted
// projected vector and reset the generation heap. A recycled *gqrSeq
// keeps its order/sorted/origBit buffers and its frontier heap's node
// array (via flipHeap.Reset), so a warmed sequence restarts without
// touching the allocator.
func (g *GQR) Start(t int, code uint64, costs []float64, reuse ProbeSequence) ProbeSequence {
	s, ok := reuse.(*gqrSeq)
	if !ok || s == nil {
		s = &gqrSeq{}
	}
	s.qcode = code
	s.m = g.ix.Tables[t].Hasher.Bits()
	s.tree = g.sharedTree
	s.heap.Reset()
	s.started = false
	s.order, s.sorted, s.origBit = sortCosts(costs[:s.m], s.order, s.sorted, s.origBit)
	return s
}

// sortCosts builds the sorted projected vector p̄ of Definition 3 from
// the per-bit flipping costs, reusing the three buffers: order is the
// sort scratch (bit index per sorted position), sorted the ascending
// |p_i(q)| values, and origBit the f mapping from sorted position back
// to the original bit's mask.
func sortCosts(costs []float64, order []int, sorted []float64, origBit []uint64) ([]int, []float64, []uint64) {
	m := len(costs)
	order, sorted, origBit = grown(order, m), grown(sorted, m), grown(origBit, m)
	for i := range order {
		order[i] = i
	}
	sortIdxByCost(order, costs)
	for pos, bit := range order {
		sorted[pos] = costs[bit]
		origBit[pos] = 1 << uint(bit)
	}
	return order, sorted, origBit
}

type gqrSeq struct {
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
func (s *gqrSeq) bucketOf(mask uint64) uint64 {
	code := s.qcode
	for mask != 0 {
		pos := bits.TrailingZeros64(mask)
		code ^= s.origBit[pos]
		mask &= mask - 1
	}
	return code
}

func (s *gqrSeq) Next() (uint64, float64, bool) {
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
