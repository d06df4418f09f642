package query

import (
	"math/bits"
	"sort"

	"gqr/internal/index"
)

// HR is Hamming ranking (paper §2.2): compute the Hamming distance from
// c(q) to every non-empty bucket, sort, and probe in order. Sorting uses
// an O(B) counting sort over the m+1 possible distances — the best case
// the paper grants HR — yet the whole O(B) pass still happens before the
// first bucket is probed, which is the "slow start" the generate-to-probe
// methods remove.
type HR struct {
	ix    *index.Index
	codes [][]uint64 // per-table sorted bucket code lists (precomputed)
}

// NewHR builds Hamming ranking over ix.
func NewHR(ix *index.Index) *HR { return &HR{ix: ix, codes: bucketCodes(ix)} }

// bucketCodes lists every table's non-empty bucket codes, ascending —
// what the two sorting methods rank per query.
func bucketCodes(ix *index.Index) [][]uint64 {
	codes := make([][]uint64, len(ix.Tables))
	for t := range codes {
		codes[t] = ix.Codes(t)
	}
	return codes
}

// Name implements Method.
func (*HR) Name() string { return "hr" }

// QDScores implements Method.
func (*HR) QDScores() bool { return false }

// Start implements Method: one O(B) counting-sort pass over the table's
// buckets by Hamming distance to code. A recycled *hrSeq keeps its
// ordered/score lists and counting-sort scratch, so restarting
// allocates nothing.
func (h *HR) Start(t int, qcode uint64, _ []float64, reuse ProbeSequence) ProbeSequence {
	m := h.ix.Tables[t].Hasher.Bits()
	codes := h.codes[t]
	s, ok := reuse.(*hrSeq)
	if !ok || s == nil {
		s = &hrSeq{}
	}
	s.codes = grown(s.codes, len(codes))
	s.scores = grown(s.scores, len(codes))
	s.counts = grown(s.counts, m+2)
	s.next = grown(s.next, m+1)
	s.pos = 0

	// Counting sort by Hamming distance; ties resolved by the ascending
	// code order of the precomputed list (deterministic, and the
	// arbitrary tie-break the paper describes).
	clear(s.counts)
	for _, c := range codes {
		s.counts[bits.OnesCount64(c^qcode)+1]++
	}
	for i := 1; i < len(s.counts); i++ {
		s.counts[i] += s.counts[i-1]
	}
	copy(s.next, s.counts[:m+1])
	for _, c := range codes {
		d := bits.OnesCount64(c ^ qcode)
		s.codes[s.next[d]] = c
		s.scores[s.next[d]] = float64(d)
		s.next[d]++
	}
	return s
}

// listSeq replays a precomputed (code, score) list.
type listSeq struct {
	codes  []uint64
	scores []float64
	pos    int
}

func (s *listSeq) Next() (uint64, float64, bool) {
	if s.pos >= len(s.codes) {
		return 0, 0, false
	}
	c, sc := s.codes[s.pos], s.scores[s.pos]
	s.pos++
	return c, sc, true
}

// hrSeq is HR's reusable sequence: the replayed list plus the
// counting-sort scratch that fills it.
type hrSeq struct {
	listSeq
	counts []int
	next   []int
}

// QR is QD ranking (Algorithm 1): compute the quantization distance from
// q to every non-empty bucket, sort all buckets by QD, and probe in
// order. Compared with HR the indicator is fine-grained, but the O(B·m)
// scoring plus O(B log B) comparison sort ahead of the first probe is
// the slow-start cost GQR eliminates.
type QR struct {
	ix    *index.Index
	codes [][]uint64
}

// NewQR builds QD ranking over ix.
func NewQR(ix *index.Index) *QR { return &QR{ix: ix, codes: bucketCodes(ix)} }

// Name implements Method.
func (*QR) Name() string { return "qr" }

// QDScores implements Method.
func (*QR) QDScores() bool { return true }

// Start implements Method: score every bucket by quantization distance
// from costs and sort the pairs in place. A recycled *qrSeq keeps the
// (code, score) pair arrays and sorts them through its own
// sort.Interface — no permutation slice and no sort.Slice closure, so
// restarting allocates nothing.
func (h *QR) Start(t int, qcode uint64, costs []float64, reuse ProbeSequence) ProbeSequence {
	codes := h.codes[t]
	s, ok := reuse.(*qrSeq)
	if !ok || s == nil {
		s = &qrSeq{}
	}
	s.codes = grown(s.codes, len(codes))
	s.scores = grown(s.scores, len(codes))
	s.pos = 0
	for i, c := range codes {
		s.codes[i] = c
		diff := c ^ qcode
		var qd float64
		for diff != 0 {
			b := bits.TrailingZeros64(diff)
			qd += costs[b]
			diff &= diff - 1
		}
		s.scores[i] = qd
	}
	// (score, code) is a strict total order — codes are unique — so the
	// in-place unstable sort has one possible outcome.
	sort.Sort(s)
	return s
}

// qrSeq is QR's reusable sequence: the sorted (code, score) pairs. It
// implements sort.Interface over them so restarting never builds a
// closure or permutation.
type qrSeq struct{ listSeq }

func (s *qrSeq) Len() int { return len(s.codes) }

func (s *qrSeq) Less(i, j int) bool {
	if s.scores[i] != s.scores[j] {
		return s.scores[i] < s.scores[j]
	}
	return s.codes[i] < s.codes[j]
}

func (s *qrSeq) Swap(i, j int) {
	s.codes[i], s.codes[j] = s.codes[j], s.codes[i]
	s.scores[i], s.scores[j] = s.scores[j], s.scores[i]
}
