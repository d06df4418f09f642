package query

import (
	"math"
	"math/bits"

	"gqr/internal/index"
)

// GQR is the paper's generate-to-probe QD ranking (Algorithms 2-4). Per
// query it:
//
//  1. computes the projected vector once and sorts the per-bit flipping
//     costs ascending (the sorted projected vector p̄, Definition 3,
//     with the f mapping back to original bit positions);
//  2. probes c(q) itself first, then holds a frontier of sorted flipping
//     vectors seeded with v^r = (1,0,...,0);
//  3. on each demand takes the minimum-QD vector off the frontier, emits
//     its bucket, and adds its two generation-tree children, Append and
//     Swap, whose QDs derive from the parent's in O(1) (Property 2).
//
// Property 1 (each flipping vector appears exactly once in the tree)
// plus Property 2 (children QDs ≥ parent QD) make the emission order
// exactly ascending QD, i.e. GQR is semantically identical to QR with no
// up-front sort. The frontier gains one vector per emission that has
// children and loses one per leaf (rightmost 1 in the last position), so
// after i emissions it holds at most i+1 vectors and, on long codes,
// nearly that many.
//
// The paper keeps the frontier in a min-heap (GQRHeap in ablation.go is
// that form, kept as the comparator and the order oracle). This type
// keeps it in FIFO queues instead, using an order the tree already has:
//
//   - a child's QD is its parent's plus a constant that depends only on
//     the child's rightmost position j: +s[j] for Append, +s[j]−s[j−1]
//     for Swap (s the sorted costs);
//   - rounded float addition and subtraction are monotone in the parent's
//     QD, so if the parents with rightmost position j−1 are emitted in
//     non-decreasing QD, their Append children are created in
//     non-decreasing QD, and so are their Swap children;
//   - the parents with rightmost position j−1 are exactly those two child
//     streams of position j−1, merged least-head-first — non-decreasing by
//     induction from the single vector v^r.
//
// So the frontier is 2(m−1)+1 queues that are each already sorted — v^r
// alone, then an Append and a Swap queue per position — and the minimum
// of the frontier is the least of their heads, found by a winner tree
// over at most 2m−1 keys. An emission is one head pop, one replay of the
// tree's path (log₂ 2m levels, all in L1) and two tail appends, where the
// heap paid a sift over thousands of nodes. The queue a vector sits in
// names its rightmost position, and each node carries its bucket code
// (parent's code with one or two original bits flipped), so no flipping
// vector is ever materialised.
//
// Order among exactly equal float64 QDs: lowest queue index first (v^r,
// then Append 1, Swap 1, Append 2, ...), then first in, first out. The
// heap form breaks such ties by heap shape; wherever QDs are distinct
// the two emit the same sequence, QD for QD and bucket for bucket.
type GQR struct {
	ix *index.Index
}

// NewGQR builds generate-to-probe QD ranking over ix.
func NewGQR(ix *index.Index) *GQR { return &GQR{ix: ix} }

// Name implements Method.
func (*GQR) Name() string { return "gqr" }

// QDScores implements Method.
func (*GQR) QDScores() bool { return true }

// Start implements Method: sort the flipping costs into the sorted
// projected vector, hand the blocks a partly consumed predecessor still
// holds back to the free list, and seed the frontier with v^r. A recycled
// *gqrSeq keeps its sort buffers and its block arena, so a warmed
// sequence restarts without touching the allocator, and the restart
// touches only the queues the previous query reached.
func (g *GQR) Start(t int, code uint64, costs []float64, reuse ProbeSequence) ProbeSequence {
	s, ok := reuse.(*gqrSeq)
	if !ok || s == nil {
		s = newGQRSeq()
	}
	s.qcode = code
	s.m = g.ix.Tables[t].Hasher.Bits()
	s.started = false
	s.order, s.sorted, s.origBit = sortCosts(costs[:s.m], s.order, s.sorted, s.origBit)
	s.reset()
	if s.m > 0 {
		s.push(0, code^s.origBit[0], s.sorted[0])
		s.live = 1
	}
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

const (
	// blockNodes is the queue block size. Memory is why queues are
	// blocks and not slices: a slice per queue keeps its high-water
	// capacity for the life of the searcher (measured +9.4 % resident
	// heap on the long-code benchmark workload), while blocks return to
	// one free list the moment they are consumed, so a sequence holds
	// what its largest frontier needed and no more.
	blockNodes = 32
	// slabBlocks is the most blocks one allocation carves: 63 of them
	// fill a 32 KB size class to the last 8 bytes.
	slabBlocks = 63
	// treeLeaves is the winner tree's leaf capacity: the power of two
	// that covers the 2·64−1 queues of the longest code.
	treeLeaves = 128
	// emptyKey is the head key of an empty queue. Keys are QDs as
	// float64 bit patterns, which order like the non-negative floats
	// they encode; no sum of costs has this pattern, so an empty queue
	// loses to every waiting node whatever its QD, +Inf included.
	emptyKey = ^uint64(0) - 1
)

// qnode is one frontier entry: a flipping vector reduced to the bucket
// it names and its quantization distance.
type qnode struct {
	code uint64
	dist float64
}

type qblock struct {
	nodes [blockNodes]qnode
	next  *qblock
}

// fifo is the part of one sorted queue that waits behind its head: a
// chain of blocks and running head and tail positions (offset in block =
// position mod blockNodes). An empty fifo holds no block.
type fifo struct {
	head, tail *qblock
	hi, ti     uint32
}

type gqrSeq struct {
	qcode   uint64
	m       int
	order   []int     // sort scratch: bit index per sorted position
	sorted  []float64 // ascending |p_i(q)| values
	origBit []uint64  // sorted position -> original bit mask
	started bool

	// live counts the frontier's nodes — zero means exhausted, whatever
	// the keys say — and peak is its high-water mark, maintained only
	// where live falls (see Frontier).
	live, peak int

	// Queue 0 holds v^r; queues 2j−1 and 2j the Append and Swap children
	// whose rightmost 1 is at sorted position j. A queue's head node
	// lives in the tree's leaf — QD in keys[i] (emptyKey: the queue is
	// empty), bucket in codes[i] — and only what waits behind it in
	// q[i], so an emission reads its node without walking a chain and a
	// queue that never holds two nodes never takes a block.
	keys  [treeLeaves]uint64
	codes [treeLeaves]uint64
	q     [treeLeaves]fifo

	// The winner tree over the leaves: win[p] is the queue whose head is
	// least in p's subtree, ties to the lower queue; leaf i sits at
	// win[treeLeaves+i], so the node above p is p>>1. Only the leaves a
	// query has reached are in play: span of them (a power of two), under
	// the root at win[root]; the tree doubles when a child is about to
	// land beyond it.
	win  [2 * treeLeaves]uint8
	span int
	root uint

	// The block arena: each of the blocks carved so far is either in a
	// queue or on the free list; slab is what remains to carve.
	free   *qblock
	slab   []qblock
	blocks int
}

// newGQRSeq sets up what no query changes, the leaves' own entries in
// the tree; reset does the rest before every query.
func newGQRSeq() *gqrSeq {
	s := &gqrSeq{}
	for i := 0; i < treeLeaves; i++ {
		s.win[treeLeaves+i] = uint8(i)
	}
	return s
}

// reset empties the frontier: every queue the last query reached gives
// its chain back to the free list, and the tree shrinks to leaf 0.
func (s *gqrSeq) reset() {
	for i := range s.q[:s.span] {
		if f := &s.q[i]; f.head != nil {
			f.tail.next = s.free
			s.free = f.head
			*f = fifo{}
		}
	}
	s.span, s.root = 1, treeLeaves
	s.keys[0] = emptyKey
	s.live, s.peak = 0, 0
}

// Frontier returns the largest number of nodes the frontier has held
// since Start.
func (s *gqrSeq) Frontier() int { return max(s.peak, s.live) }

func (s *gqrSeq) Next() (uint64, float64, bool) {
	if !s.started {
		// Algorithm 4 line 1-3: the first probe is bucket c(q) (the
		// all-zero flipping vector); Start seeded v^r = (1,0,...,0).
		s.started = true
		return s.qcode, 0, true
	}
	if s.live == 0 {
		return 0, 0, false
	}
	i := s.win[s.root] & (treeLeaves - 1)
	code, dist := s.codes[i], math.Float64frombits(s.keys[i])

	// The queue's next node moves up into the leaf, and the tree's path
	// from it is replayed.
	next := emptyKey
	if f := &s.q[i]; f.head != nil {
		b := f.head
		n := &b.nodes[f.hi%blockNodes]
		s.codes[i], next = n.code, math.Float64bits(n.dist)
		if f.hi++; f.hi == f.ti {
			s.release(b)
			*f = fifo{}
		} else if f.hi%blockNodes == 0 {
			f.head = b.next
			s.release(b)
		}
	}
	s.raise(i, next)

	// Generate the two children (Algorithm 4 lines 6-12): j is the
	// position of the rightmost 1.
	j := (int(i) + 1) >> 1
	if j+1 < s.m {
		for 2*j+2 >= s.span {
			s.grow()
		}
		// Append: add a 1 to the right of the rightmost 1.
		ap := dist + s.sorted[j+1]
		s.push(uint8(2*j+1), code^s.origBit[j+1], ap)
		// Swap: move the rightmost 1 one position right.
		s.push(uint8(2*j+2), code^s.origBit[j]^s.origBit[j+1], ap-s.sorted[j])
		s.live++
	} else {
		// A leaf: the only step at which the frontier shrinks, so the
		// only one that has to look at the high-water mark.
		s.peak = max(s.peak, s.live)
		s.live--
	}
	return code, dist, true
}

// push adds a node to queue i, which the tree already spans: into the
// leaf when the queue is empty — the one push that changes a head key —
// and behind the head otherwise.
func (s *gqrSeq) push(i uint8, code uint64, dist float64) {
	i &= treeLeaves - 1
	if s.keys[i] == emptyKey {
		s.codes[i] = code
		s.lower(i, math.Float64bits(dist))
		return
	}
	f := &s.q[i]
	off := f.ti % blockNodes
	if off == 0 {
		s.extend(f)
	}
	f.tail.nodes[off] = qnode{code, dist}
	f.ti++
}

// extend links a block to f's tail.
func (s *gqrSeq) extend(f *fifo) {
	b := s.grab()
	if f.tail == nil {
		f.head = b
	} else {
		f.tail.next = b
	}
	f.tail = b
}

// grab takes a block off the free list or, when every block is in a
// queue, carves one from the current slab. A slab is as large as the
// arena it joins, up to slabBlocks: a sequence that only ever needs a
// few blocks holds a few, and one warming up to a deep frontier costs
// the allocator a call per 32 KB and strands less than that.
func (s *gqrSeq) grab() *qblock {
	if b := s.free; b != nil {
		s.free, b.next = b.next, nil
		return b
	}
	if len(s.slab) == 0 {
		s.slab = make([]qblock, min(slabBlocks, max(1, s.blocks)))
	}
	b := &s.slab[0]
	s.slab = s.slab[1:]
	s.blocks++
	return b
}

func (s *gqrSeq) release(b *qblock) {
	b.next = s.free
	s.free = b
}

// raise records that queue i's head key rose to key (its head was
// emitted) and replays the matches on the path from leaf i to the root.
// i was the overall winner, so it stood at every node of that path and
// each is decided afresh against the sibling subtree's winner; a
// sibling on the left is the lower queue and takes a tie. The loop is
// branch-free on purpose: which side wins a match is a coin toss, and a
// mispredicted branch per level cost more than the rest of an emission.
func (s *gqrSeq) raise(i uint8, key uint64) {
	s.keys[i&(treeLeaves-1)] = key
	cur, kc := i, key
	for p := treeLeaves + uint(i); p > s.root; p >>= 1 {
		sib := s.win[(p^1)&(2*treeLeaves-1)]
		ks := s.keys[sib&(treeLeaves-1)]
		// The sibling wins with ks < kc, or ks == kc from the left (p odd);
		// emptyKey+1 does not wrap.
		_, lt := bits.Sub64(ks, kc+uint64(p&1), 0)
		cur ^= (cur ^ sib) & uint8(-lt)
		kc = min(kc, ks)
		s.win[(p>>1)&(2*treeLeaves-1)] = cur
	}
}

// lower records that queue i's head key fell from empty to key and lets
// i climb while it beats the winner above it; the first match it loses
// ends the walk, since nothing higher can change.
func (s *gqrSeq) lower(i uint8, key uint64) {
	s.keys[i&(treeLeaves-1)] = key
	for p := (treeLeaves + uint(i)) >> 1; p >= s.root; p >>= 1 {
		o := s.win[p&(2*treeLeaves-1)]
		if o == i {
			continue
		}
		if ko := s.keys[o&(treeLeaves-1)]; key > ko || (key == ko && i > o) {
			return
		}
		s.win[p&(2*treeLeaves-1)] = i
	}
}

// grow doubles the tree: the old root becomes the left child of a new
// one whose right subtree, span empty leaves, is set up here — the only
// initialisation a queue ever gets, paid when a query first reaches it.
func (s *gqrSeq) grow() {
	span := s.span
	for i := span; i < 2*span; i++ {
		s.keys[i] = emptyKey
	}
	for level, n := 1, span>>1; n > 0; level, n = level+1, n>>1 {
		base := (treeLeaves + span) >> level
		for t := 0; t < n; t++ {
			s.win[base+t] = uint8(span + t<<level)
		}
	}
	s.root >>= 1
	s.win[s.root] = s.win[2*s.root]
	s.span = 2 * span
}
