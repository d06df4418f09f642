package query

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"gqr/internal/hash"
	"gqr/internal/index"
)

// stubHasher returns a fixed code and fixed flipping costs regardless of
// the input vector, letting property tests drive GQR with arbitrary
// cost structures detached from any learner.
type stubHasher struct {
	bits  int
	code  uint64
	costs []float64
}

func (s *stubHasher) Name() string { return "stub" }
func (s *stubHasher) Bits() int    { return s.bits }
func (s *stubHasher) Code(x []float32) uint64 {
	return s.code
}
func (s *stubHasher) QueryProjection(x []float32, costs []float64) uint64 {
	copy(costs, s.costs)
	return s.code
}

// stubIndex wraps a stub hasher in a one-table index over a trivial
// dataset (contents are irrelevant to sequence generation).
func stubIndex(bits int, code uint64, costs []float64) *index.Index {
	data := make([]float32, 4)
	h := &stubHasher{bits: bits, code: code, costs: costs}
	return index.NewFromBuckets(
		[]hash.Hasher{h},
		[]map[uint64][]int32{{code: {0, 1}}},
		data, 2, 2,
	)
}

// TestGQROrderingMatchesSubsetSumSort is the definitive Algorithm 2-4
// correctness property: for arbitrary non-negative cost vectors, GQR
// must emit all 2^m buckets in exactly the order of their QD = subset
// sum of flipped-bit costs, as a brute-force enumeration + sort
// defines it.
func TestGQROrderingMatchesSubsetSumSort(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 2 + rng.Intn(9) // 2..10 bits -> up to 1024 subsets
		costs := make([]float64, m)
		for i := range costs {
			costs[i] = rng.Float64() * 10
			if rng.Intn(5) == 0 {
				costs[i] = 0 // exercise zero-cost ties
			}
		}
		code := uint64(rng.Int63()) & ((1 << uint(m)) - 1)
		ix := stubIndex(m, code, costs)
		seq := NewSequence(NewGQR(ix), ix, 0, []float32{0, 0})

		// Brute-force expectation: QD of every bucket.
		type bs struct {
			bucket uint64
			qd     float64
		}
		all := make([]bs, 0, 1<<uint(m))
		for b := uint64(0); b < 1<<uint(m); b++ {
			var qd float64
			diff := b ^ code
			for i := 0; i < m; i++ {
				if diff&(1<<uint(i)) != 0 {
					qd += costs[i]
				}
			}
			all = append(all, bs{b, qd})
		}
		sort.Slice(all, func(a, b int) bool { return all[a].qd < all[b].qd })

		seen := make(map[uint64]bool)
		for i := 0; ; i++ {
			bucket, score, ok := seq.Next()
			if !ok {
				return i == len(all) && len(seen) == len(all)
			}
			if i >= len(all) {
				return false
			}
			if seen[bucket] {
				return false // duplicate emission
			}
			seen[bucket] = true
			// Score must match the brute-force QD at this rank (ties
			// may reorder buckets but never scores).
			if diff := score - all[i].qd; diff > 1e-9 || diff < -1e-9 {
				return false
			}
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestGHROrderingMatchesPopcountSort is the analogous property for the
// Hamming generate-to-probe baseline.
func TestGHROrderingMatchesPopcountSort(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 2 + rng.Intn(9)
		code := uint64(rng.Int63()) & ((1 << uint(m)) - 1)
		ix := stubIndex(m, code, make([]float64, m))
		seq := NewSequence(NewGHR(ix), ix, 0, []float32{0, 0})
		prev := -1.0
		count := 0
		for {
			_, score, ok := seq.Next()
			if !ok {
				break
			}
			if score < prev {
				return false
			}
			prev = score
			count++
		}
		return count == 1<<uint(m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
