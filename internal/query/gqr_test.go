package query

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Tests for the serving generator (gqr.go): the queue-and-winner-tree
// frontier against the paper's heap form (GQRHeap, ablation.go) and
// against Definition 1, at every code length, plus the bounds on the
// scratch it keeps.

type emission struct {
	code  uint64
	score float64
}

// drain runs a sequence for at most limit emissions.
func drain(seq ProbeSequence, limit int) []emission {
	var out []emission
	for len(out) < limit {
		code, score, ok := seq.Next()
		if !ok {
			break
		}
		out = append(out, emission{code, score})
	}
	return out
}

// startGQR and startHeap start the serving generator and the heap oracle
// on a one-table stub index whose hasher reports the given code and costs.
func startGQR(bits int, code uint64, costs []float64, reuse ProbeSequence) ProbeSequence {
	return NewGQR(stubIndex(bits, code, costs)).Start(0, code, costs, reuse)
}

func startHeap(bits int, code uint64, costs []float64) ProbeSequence {
	return NewGQRHeap(stubIndex(bits, code, costs)).Start(0, code, costs, nil)
}

// queueModel is the generator's order written the slow, obvious way: the
// queues are slices, children are computed from flipping vectors by the
// paper's bit operations and Algorithm 3, and the next emission is found
// by scanning every queue head for the least QD — the first queue to
// hold it wins, and within a queue the oldest node. It defines the order
// among equal QDs, which the heap oracle cannot.
func queueModel(m int, code uint64, costs []float64) []emission {
	_, sorted, origBit := sortCosts(costs, nil, nil, nil)
	type vec struct {
		mask uint64
		dist float64
	}
	queues := make([][]vec, 2*m-1)
	out := []emission{{code, 0}}
	if m > 0 {
		queues[0] = []vec{{1, sorted[0]}}
	}
	for {
		best := -1
		for i, q := range queues {
			// Keys order as the bit patterns of non-negative floats, so
			// that a NaN (from +Inf costs) has a place too.
			if len(q) > 0 && (best < 0 || math.Float64bits(q[0].dist) < math.Float64bits(queues[best][0].dist)) {
				best = i
			}
		}
		if best < 0 {
			return out
		}
		v := queues[best][0]
		queues[best] = queues[best][1:]
		bucket := code
		for pos := 0; pos < m; pos++ {
			if v.mask>>uint(pos)&1 == 1 {
				bucket ^= origBit[pos]
			}
		}
		out = append(out, emission{bucket, v.dist})
		if j := (best + 1) / 2; j+1 < m {
			hi := uint64(1) << uint(j+1)
			queues[2*j+1] = append(queues[2*j+1], vec{v.mask | hi, v.dist + sorted[j+1]})
			queues[2*j+2] = append(queues[2*j+2], vec{v.mask&^(1<<uint(j)) | hi, v.dist + sorted[j+1] - sorted[j]})
		}
	}
}

// checkAgainstHeap runs the serving generator and the heap oracle to
// exhaustion over one cost vector and holds the first to everything that
// is a theorem about it:
//
//   - the sequence is queueModel's, emission for emission — which pins
//     the order among equal QDs: lowest queue, then first in first out;
//   - all 2^m codes, each exactly once, then exhaustion;
//   - a code's score is bit for bit the oracle's score of that code (a
//     flipping vector has one path in the generation tree, so its QD is
//     one chain of additions whatever the frontier's order) and, to
//     rounding, the QD of Definition 1;
//   - where the oracle's scores are pairwise distinct, the same sequence;
//   - when the arithmetic is exact (costs are small integers: no sum
//     rounds), scores are non-decreasing, equal to the oracle's position
//     by position, and every group of equal scores holds the same codes.
func checkAgainstHeap(t testing.TB, m int, code uint64, costs []float64, exact bool) {
	t.Helper()
	label := fmt.Sprintf("m=%d code=%b costs=%v", m, code, costs)
	got := drain(startGQR(m, code, costs, nil), 1<<uint(m)+1)
	want := drain(startHeap(m, code, costs), 1<<uint(m)+1)
	if len(got) != 1<<uint(m) || len(want) != len(got) {
		t.Fatalf("%s: %d emissions, oracle %d, want %d", label, len(got), len(want), 1<<uint(m))
	}
	for i, e := range queueModel(m, code, costs) {
		if e.code != got[i].code || math.Float64bits(e.score) != math.Float64bits(got[i].score) {
			t.Fatalf("%s: emission %d is %+v, the queue model's %+v", label, i, got[i], e)
		}
	}
	oracleScore := make(map[uint64]float64, len(want))
	distinct := true
	for i, e := range want {
		oracleScore[e.code] = e.score
		if i > 0 && e.score == want[i-1].score {
			distinct = false
		}
	}
	seen := make(map[uint64]bool, len(got))
	for i, e := range got {
		if seen[e.code] {
			t.Fatalf("%s: code %b emitted twice", label, e.code)
		}
		seen[e.code] = true
		os, ok := oracleScore[e.code]
		if !ok {
			t.Fatalf("%s: emitted code %b outside the code space", label, e.code)
		}
		if math.Float64bits(e.score) != math.Float64bits(os) {
			t.Fatalf("%s: code %b scored %v, oracle %v", label, e.code, e.score, os)
		}
		if qd := qdOf(code, e.code, costs); !(math.Abs(e.score-qd) <= 1e-9*math.Max(1, qd)) && !(math.IsInf(qd, 1) || math.IsNaN(e.score)) {
			t.Fatalf("%s: code %b scored %v, Definition 1 gives %v", label, e.code, e.score, qd)
		}
		if distinct && e != want[i] {
			t.Fatalf("%s: emission %d is %+v, oracle %+v (all QDs distinct)", label, i, e, want[i])
		}
	}
	if !exact {
		return
	}
	for lo := 0; lo < len(got); {
		if got[lo].score != want[lo].score {
			t.Fatalf("%s: emission %d scored %v, oracle %v", label, lo, got[lo].score, want[lo].score)
		}
		if lo > 0 && got[lo].score < got[lo-1].score {
			t.Fatalf("%s: score fell %v -> %v at emission %d", label, got[lo-1].score, got[lo].score, lo)
		}
		hi := lo + 1
		for hi < len(got) && want[hi].score == want[lo].score {
			hi++
		}
		group := make(map[uint64]bool, hi-lo)
		for _, e := range want[lo:hi] {
			group[e.code] = true
		}
		for _, e := range got[lo:hi] {
			if !group[e.code] {
				t.Fatalf("%s: code %b in the tie group at %v, not in the oracle's", label, e.code, want[lo].score)
			}
		}
		lo = hi
	}
}

// TestGQRMatchesHeapOracleExhaustive covers every code length at which
// full enumeration is cheap, over the cost shapes that stress the queue
// invariant: continuous costs (no ties), one value everywhere (every
// level of the tree ties), zeros (children tie with parents), one cost
// that swallows the rest in rounding, and non-finite costs (the keys of
// waiting nodes reach +Inf and NaN; only a live count can tell the end).
func TestGQRMatchesHeapOracleExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for m := 1; m <= 12; m++ {
		code := uint64(rng.Int63()) & (1<<uint(m) - 1)
		fill := func(f func(i int) float64) []float64 {
			c := make([]float64, m)
			for i := range c {
				c[i] = f(i)
			}
			return c
		}
		for rep := 0; rep < 3; rep++ {
			checkAgainstHeap(t, m, code, fill(func(int) float64 { return rng.Float64() * 10 }), false)
			checkAgainstHeap(t, m, code, fill(func(int) float64 { return math.Abs(rng.NormFloat64()) }), false)
			checkAgainstHeap(t, m, code, fill(func(int) float64 { return float64(rng.Intn(4)) }), true)
		}
		checkAgainstHeap(t, m, code, fill(func(int) float64 { return 3 }), true)
		checkAgainstHeap(t, m, code, fill(func(int) float64 { return 0 }), true)
		checkAgainstHeap(t, m, code, fill(func(i int) float64 { return float64(i % 2) }), true)
		hugeAt := rng.Intn(m)
		checkAgainstHeap(t, m, code, fill(func(i int) float64 {
			if i == hugeAt {
				return 1 << 60 // every small sum vanishes below its ulp
			}
			return float64(1 + rng.Intn(100))
		}), false)
		checkAgainstHeap(t, m, code, fill(func(i int) float64 {
			if i == hugeAt {
				return 1e300
			}
			return rng.Float64()
		}), false)
		checkAgainstHeap(t, m, code, fill(func(i int) float64 {
			if i%3 == 0 {
				return math.Inf(1)
			}
			return rng.Float64()
		}), false)
	}
}

// TestGQRTieOrderIsPinned writes out the one order the generator may
// emit when QDs are exactly equal: the lowest queue first (v^r, then per
// position the Append queue before the Swap queue), first in first out
// within a queue. Three unit costs: sorted position = bit.
func TestGQRTieOrderIsPinned(t *testing.T) {
	got := drain(startGQR(3, 0, []float64{1, 1, 1}, nil), 9)
	want := []emission{
		{0b000, 0},
		{0b001, 1}, // v^r
		{0b010, 1}, // Swap 1
		{0b100, 1}, // Swap 2
		{0b011, 2}, // Append 1, ahead of Append 2's 110 and Swap 2's 101
		{0b110, 2}, // Append 2: queued before 111
		{0b101, 2}, // Swap 2
		{0b111, 3},
	}
	if len(got) != len(want) {
		t.Fatalf("%d emissions, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("emission %d = {%03b %v}, want {%03b %v}", i, got[i].code, got[i].score, want[i].code, want[i].score)
		}
	}
}

// TestGQRLongCodePrefix checks the lengths no test can enumerate: over
// the first 50 000 emissions of 32- and 64-bit codes there is no
// duplicate, no falling score, every score is the emitted code's QD
// (which catches a wrong bit at any position, the sign bit of a 64-bit
// code included — it is the cheapest flip here) and the heap oracle
// emits the same prefix.
func TestGQRLongCodePrefix(t *testing.T) {
	const prefix = 50000
	for _, m := range []int{32, 64} {
		rng := rand.New(rand.NewSource(int64(m)))
		costs := make([]float64, m)
		for i := range costs {
			costs[i] = 0.05 + math.Abs(rng.NormFloat64())
		}
		costs[m-1] = 0.01
		code := rng.Uint64()
		if m < 64 {
			code &= 1<<uint(m) - 1
		}
		got := drain(startGQR(m, code, costs, nil), prefix)
		want := drain(startHeap(m, code, costs), prefix)
		if len(got) != prefix {
			t.Fatalf("m=%d: %d emissions, want %d", m, len(got), prefix)
		}
		seen := make(map[uint64]bool, prefix)
		top := 0
		for i, e := range got {
			if seen[e.code] {
				t.Fatalf("m=%d: code %x emitted twice", m, e.code)
			}
			seen[e.code] = true
			if i > 0 && e.score < got[i-1].score {
				t.Fatalf("m=%d: score fell %v -> %v at emission %d", m, got[i-1].score, e.score, i)
			}
			if qd := qdOf(code, e.code, costs); math.Abs(e.score-qd) > 1e-9*math.Max(1, qd) {
				t.Fatalf("m=%d: code %x scored %v, Definition 1 gives %v", m, e.code, e.score, qd)
			}
			if m < 64 && e.code>>uint(m) != 0 {
				t.Fatalf("m=%d: code %x has bits past the code length", m, e.code)
			}
			if (e.code^code)>>uint(m-1)&1 == 1 {
				top++
			}
			if e != want[i] {
				t.Fatalf("m=%d: emission %d is %+v, heap oracle %+v", m, i, e, want[i])
			}
		}
		if got[1].code != code^(1<<uint(m-1)) {
			t.Fatalf("m=%d: second emission %x does not flip the cheapest bit %d", m, got[1].code, m-1)
		}
		if top < prefix/4 {
			t.Fatalf("m=%d: bit %d flipped in only %d of %d emissions", m, m-1, top, prefix)
		}
	}
}

// TestGQRRestartAfterPartialConsumption: a sequence abandoned mid-way
// (what every budgeted search leaves behind) and handed back to Start
// emits exactly what a fresh one does, and takes its blocks with it.
func TestGQRRestartAfterPartialConsumption(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var reused ProbeSequence
	for round := 0; round < 6; round++ {
		m := []int{16, 24, 3, 64, 16, 1}[round]
		costs := make([]float64, m)
		for i := range costs {
			costs[i] = rng.Float64()
		}
		code := rng.Uint64() >> uint(64-m)
		consume := []int{5000, 20000, 3, 100, 1 << 16, 10}[round]
		reused = startGQR(m, code, costs, reused)
		got := drain(reused, consume)
		want := drain(startGQR(m, code, costs, nil), consume)
		if len(got) != len(want) {
			t.Fatalf("round %d: reused sequence emitted %d, fresh %d", round, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("round %d: emission %d is %+v reused, %+v fresh", round, i, got[i], want[i])
			}
		}
	}
}

// freeBlocks counts the arena's free list.
func freeBlocks(s *gqrSeq) int {
	n := 0
	for b := s.free; b != nil; b = b.next {
		n++
	}
	return n
}

// TestGQRScratchIsBoundedAndAllocationFree holds the generator to the
// memory it claims: the arena never grows past the blocks its largest
// frontier filled plus two partly filled blocks (head and tail) per
// queue; an exhausted sequence has every block back on the free list;
// and a repeated query touches the allocator not at all.
func TestGQRScratchIsBoundedAndAllocationFree(t *testing.T) {
	const m, depth = 32, 20000
	rng := rand.New(rand.NewSource(3))
	costs := make([]float64, m)
	for i := range costs {
		costs[i] = math.Abs(rng.NormFloat64())
	}
	g := NewGQR(stubIndex(m, 0, costs))
	seq := g.Start(0, 0, costs, nil)
	if n := len(drain(seq, depth)); n != depth {
		t.Fatalf("%d emissions, want %d", n, depth)
	}
	s := seq.(*gqrSeq)
	peak := s.Frontier()
	if peak < depth/2 || peak > depth {
		t.Fatalf("frontier peaked at %d nodes after %d emissions of a %d-bit code", peak, depth, m)
	}
	queues := 2*(m-1) + 1
	if bound := (peak+blockNodes-1)/blockNodes + 2*queues; s.blocks > bound {
		t.Fatalf("arena holds %d blocks for a peak of %d nodes in %d queues, bound %d", s.blocks, peak, queues, bound)
	}
	blocks := s.blocks
	if allocs := testing.AllocsPerRun(5, func() {
		seq = g.Start(0, 0, costs, seq)
		for i := 0; i < depth; i++ {
			seq.Next()
		}
	}); allocs != 0 {
		t.Fatalf("a repeated %d-bucket query allocates %v times", depth, allocs)
	}
	if s.blocks != blocks {
		t.Fatalf("arena grew %d -> %d blocks on a repeated query", blocks, s.blocks)
	}

	// To exhaustion, on a code short enough to finish.
	short := costs[:12]
	seq = startGQR(12, 5, short, seq)
	if n := len(drain(seq, 1<<13)); n != 1<<12 {
		t.Fatalf("%d emissions of a 12-bit code", n)
	}
	if s = seq.(*gqrSeq); s.live != 0 || freeBlocks(s) != s.blocks {
		t.Fatalf("exhausted sequence: %d live nodes, %d of %d blocks on the free list", s.live, freeBlocks(s), s.blocks)
	}
	for i, f := range s.q {
		if f.head != nil || f.tail != nil {
			t.Fatalf("exhausted sequence: queue %d still holds a block", i)
		}
	}
}

// FuzzGQRSequence lets the fuzzer choose the code length, the query code
// and the costs. The first byte picks m and whether costs are small
// integers (exact arithmetic, ties everywhere: the full contract of
// checkAgainstHeap applies) or raw float64 bit patterns made
// non-negative (rounding, subnormals, huge values, infinities).
func FuzzGQRSequence(f *testing.F) {
	f.Add([]byte{3, 1, 1, 1})
	f.Add([]byte{0x8a, 0, 0, 3, 3, 7, 7, 1, 0, 2, 9})
	f.Add(append([]byte{0x45}, make([]byte, 40)...))
	raw := []byte{0x44}
	for _, c := range []float64{0.25, 0.25, 1e300, 5e-324, math.Inf(1)} {
		raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(c))
	}
	f.Add(raw)
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		m := 1 + int(in[0]&0x0f)%10
		small := in[0]&0x80 != 0
		in = in[1:]
		costs := make([]float64, m)
		var code uint64
		for i := range costs {
			switch {
			case small && i < len(in):
				costs[i] = float64(in[i] & 7)
				code ^= uint64(in[i]>>3&1) << uint(i)
			case !small && 8*i+8 <= len(in):
				c := math.Float64frombits(binary.LittleEndian.Uint64(in[8*i:]) &^ (1 << 63))
				if c != c {
					c = 0
				}
				costs[i] = c
				code ^= uint64(in[8*i]&1) << uint(i)
			}
		}
		checkAgainstHeap(t, m, code, costs, small)
	})
}
