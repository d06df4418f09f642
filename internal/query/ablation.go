package query

import (
	"math/bits"

	"gqr/internal/index"
)

// GQRNaive is the ablation counterpart of GQR (abl-heap in DESIGN.md):
// identical semantics, but the frontier of candidate flipping vectors is
// a plain slice scanned linearly for its minimum at every step instead
// of a min-heap. It quantifies what the paper's heap buys.
type GQRNaive struct {
	ix *index.Index
}

// NewGQRNaive builds the naive-frontier variant of GQR over ix.
func NewGQRNaive(ix *index.Index) *GQRNaive { return &GQRNaive{ix: ix} }

// Name implements Method.
func (*GQRNaive) Name() string { return "gqr-naive" }

// QDScores implements Method.
func (*GQRNaive) QDScores() bool { return true }

// Start implements Method, recycling the same buffers as the heap-based
// GQR plus the naive frontier slice.
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

// gqrNaiveSeq is gqrSeq's projected-vector state with a plain slice for
// a frontier (the embedded heap stays empty).
type gqrNaiveSeq struct {
	gqrSeq
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
