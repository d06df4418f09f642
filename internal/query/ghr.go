package query

import "gqr/internal/index"

// GHR is generate-to-probe Hamming ranking, the "hash lookup" variant
// the paper implements as a fair baseline (§6.3): instead of sorting the
// existing buckets, it enumerates all m-bit flipping masks in ascending
// popcount order and probes c(q)⊕mask, so the first buckets are
// available immediately. Codes that hash to empty buckets cost one map
// miss. Within one Hamming radius, masks are enumerated in ascending
// numeric order via Gosper's hack, which is deterministic.
type GHR struct {
	ix *index.Index
}

// NewGHR builds generate-to-probe Hamming ranking over ix.
func NewGHR(ix *index.Index) *GHR { return &GHR{ix: ix} }

// Name implements Method.
func (*GHR) Name() string { return "ghr" }

// QDScores implements Method.
func (*GHR) QDScores() bool { return false }

// Start implements Method. GHR enumerates from the code alone and
// ghrSeq holds no buffers, so reuse just resets the enumeration state
// in place.
func (g *GHR) Start(t int, code uint64, _ []float64, reuse ProbeSequence) ProbeSequence {
	s, ok := reuse.(*ghrSeq)
	if !ok || s == nil {
		s = &ghrSeq{}
	}
	*s = ghrSeq{qcode: code, m: g.ix.Tables[t].Hasher.Bits()}
	return s
}

type ghrSeq struct {
	qcode   uint64
	m       int
	radius  int
	mask    uint64 // current flipping mask within the radius; 0 = emit qcode
	started bool
}

// nextCombination returns the next larger integer with the same popcount
// (Gosper's hack), or 0 on wraparound past the m-bit range.
func nextCombination(v uint64, m int) uint64 {
	c := v & (^v + 1) // lowest set bit
	r := v + c
	next := (((r ^ v) >> 2) / c) | r
	if m < 64 && next >= 1<<uint(m) {
		return 0
	}
	if next < v { // overflow past 64 bits
		return 0
	}
	return next
}

// firstCombination returns the smallest m-bit integer with popcount r.
func firstCombination(r int) uint64 { return (1 << uint(r)) - 1 }

func (s *ghrSeq) Next() (uint64, float64, bool) {
	if !s.started {
		s.started = true
		return s.qcode, 0, true
	}
	for {
		if s.radius == 0 {
			s.radius = 1
			s.mask = firstCombination(1)
			return s.qcode ^ s.mask, 1, true
		}
		if next := nextCombination(s.mask, s.m); next != 0 {
			s.mask = next
			return s.qcode ^ s.mask, float64(s.radius), true
		}
		s.radius++
		if s.radius > s.m {
			return 0, 0, false
		}
		s.mask = firstCombination(s.radius)
		return s.qcode ^ s.mask, float64(s.radius), true
	}
}
