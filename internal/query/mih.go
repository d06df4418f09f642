package query

import (
	"math/bits"
	"slices"
	"sort"

	"gqr/internal/index"
)

// MIH is multi-index hashing (Norouzi, Punjani & Fleet), the appendix
// baseline: the m-bit code is chopped into Blocks substrings, each
// indexed in its own table mapping substring -> full codes. All buckets
// at full Hamming distance exactly r from c(q) are found by searching
// every block within substring radius ⌊r/Blocks⌋ (pigeonhole: a code at
// full distance r is within ⌊r/Blocks⌋ of the query in at least one
// block), then filtering candidates by their true distance and
// de-duplicating. The filter+dedup overhead is exactly why the paper
// finds MIH slightly worse than plain hash lookup at bucket-index code
// lengths where few buckets are empty.
type MIH struct {
	ix     *index.Index
	blocks int
	// per table, per block: substring -> full codes present, stored CSR
	// (sorted substring keys, prefix offsets, flat full-code array) and
	// probed through an open-addressing table, mirroring the bucket
	// storage engine.
	sub [][]mihBlock
	// per table, per block: bit offset and width.
	layout [][2]int
}

// mihBlock is one substring index in CSR form: the full codes whose
// substring equals keys[s] sit at fulls[offsets[s]:offsets[s+1]].
type mihBlock struct {
	offsets []uint32
	fulls   []uint64
	probe   index.ProbeTable
}

// buildMIHBlock groups the table's full codes by their substring in
// this block. Codes arrive ascending (Table.Codes order), and the
// stable grouping keeps each substring's full-code list ascending too —
// the same per-substring order the previous map layout produced.
func buildMIHBlock(codes []uint64, off, w int) mihBlock {
	maskW := (uint64(1) << uint(w)) - 1
	order := make([]int, len(codes))
	for i := range order {
		order[i] = i
	}
	sub := func(c uint64) uint64 { return (c >> uint(off)) & maskW }
	sort.SliceStable(order, func(a, b int) bool { return sub(codes[order[a]]) < sub(codes[order[b]]) })
	var keys []uint64
	offsets := make([]uint32, 1)
	fulls := make([]uint64, len(codes))
	for i, src := range order {
		s := sub(codes[src])
		if len(keys) == 0 || keys[len(keys)-1] != s {
			keys = append(keys, s)
			offsets = append(offsets, uint32(i))
		}
		fulls[i] = codes[src]
		offsets[len(offsets)-1] = uint32(i + 1)
	}
	return mihBlock{offsets: offsets, fulls: fulls, probe: index.NewProbeTable(keys)}
}

// lookup returns the full codes sharing the given substring.
func (b *mihBlock) lookup(sub uint64) []uint64 {
	s, ok := b.probe.Lookup(sub)
	if !ok {
		return nil
	}
	return b.fulls[b.offsets[s]:b.offsets[s+1]]
}

// NewMIH builds multi-index hashing over ix with the given number of
// substring blocks; blocks ≤ 0 picks m/8 rounded up to at least 2
// (8-bit substrings, the typical MIH configuration scaled to short
// codes).
func NewMIH(ix *index.Index, blocks int) *MIH {
	m := ix.Bits()
	if blocks <= 0 {
		blocks = (m + 7) / 8
		if blocks < 2 {
			blocks = 2
		}
	}
	if blocks > m {
		blocks = m
	}
	mi := &MIH{ix: ix, blocks: blocks}
	// Block layout: near-equal contiguous widths.
	mi.layout = make([][2]int, blocks)
	offset := 0
	for b := 0; b < blocks; b++ {
		w := m / blocks
		if b < m%blocks {
			w++
		}
		mi.layout[b] = [2]int{offset, w}
		offset += w
	}
	mi.sub = make([][]mihBlock, len(ix.Tables))
	for t := range ix.Tables {
		mi.sub[t] = make([]mihBlock, blocks)
		codes := ix.Codes(t)
		for b := 0; b < blocks; b++ {
			mi.sub[t][b] = buildMIHBlock(codes, mi.layout[b][0], mi.layout[b][1])
		}
	}
	return mi
}

// Name implements Method.
func (*MIH) Name() string { return "mih" }

// QDScores implements Method.
func (*MIH) QDScores() bool { return false }

// Start implements Method. MIH searches from the code alone. A recycled
// *mihSeq keeps the per-distance discovery lists (truncated, capacity
// retained) and the seen set (cleared, buckets retained), so a warmed
// sequence restarts without allocating.
func (mi *MIH) Start(t int, qcode uint64, _ []float64, reuse ProbeSequence) ProbeSequence {
	m := mi.ix.Tables[t].Hasher.Bits()
	s, ok := reuse.(*mihSeq)
	if !ok || s == nil {
		s = &mihSeq{seen: make(map[uint64]bool)}
	}
	s.mi = mi
	s.t = t
	s.qcode = qcode
	s.m = m
	s.radius = -1
	s.group = nil
	s.gpos = 0
	s.pending = grown(s.pending, m+1)
	for i := range s.pending {
		s.pending[i] = s.pending[i][:0]
	}
	clear(s.seen)
	s.blockR = -1
	return s
}

type mihSeq struct {
	mi     *MIH
	t      int
	qcode  uint64
	m      int
	radius int      // current full-distance group being emitted; -1 before the first
	group  []uint64 // codes at distance == radius, sorted
	gpos   int      // next index in group
	// pending[d] collects the discovered codes at full distance d;
	// slices are truncated and reused across queries.
	pending [][]uint64
	seen    map[uint64]bool
	blockR  int // substring radius enumerated so far
}

// extend enumerates all block substrings at exact substring distance br
// from the query in every block and pools the full codes found.
func (s *mihSeq) extend(br int) {
	for b := 0; b < s.mi.blocks; b++ {
		off, w := s.mi.layout[b][0], s.mi.layout[b][1]
		if br > w {
			continue
		}
		maskW := (uint64(1) << uint(w)) - 1
		qsub := (s.qcode >> uint(off)) & maskW
		block := &s.mi.sub[s.t][b]
		emit := func(sub uint64) {
			for _, full := range block.lookup(sub) {
				if s.seen[full] {
					continue
				}
				s.seen[full] = true
				d := bits.OnesCount64(full ^ s.qcode)
				s.pending[d] = append(s.pending[d], full)
			}
		}
		if br == 0 {
			emit(qsub)
			continue
		}
		for mask := firstCombination(br); mask != 0; mask = nextCombination(mask, w) {
			emit(qsub ^ mask)
		}
	}
	s.blockR = br
}

func (s *mihSeq) Next() (uint64, float64, bool) {
	for {
		if s.gpos < len(s.group) {
			c := s.group[s.gpos]
			s.gpos++
			return c, float64(s.radius), true
		}
		// Advance to the next radius group; first make sure every code
		// at that full distance has been discovered (needs substring
		// radius ⌊r/blocks⌋).
		s.radius++
		if s.radius > s.m {
			return 0, 0, false
		}
		need := s.radius / s.mi.blocks
		for s.blockR < need {
			s.extend(s.blockR + 1)
		}
		// Codes are unique, so the in-place sort is deterministic and
		// allocation-free (the group aliases the reusable pending slice).
		s.group = s.pending[s.radius]
		slices.Sort(s.group)
		s.gpos = 0
	}
}
