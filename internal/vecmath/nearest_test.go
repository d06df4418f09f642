package vecmath

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// nearestGo is NearestCentroid on the Go fallback whatever the CPU, so
// the fallback is tested on amd64 too.
func nearestGo(x, blocked []float32) (int, float64) {
	var m laneMin
	m.reset()
	nearestScanGo(x, blocked, &m)
	return m.best()
}

// assertNearestMatches holds NearestCentroid (the dispatched kernel,
// AVX2 where the CPU has it) and the Go fallback to ArgNearest and to
// the serial definition: the same index and the same distance bits.
func assertNearestMatches(t *testing.T, x, centers []float32, k int) {
	t.Helper()
	d := len(x)
	blocked := BlockCentroids(nil, centers, k, d)
	wantBest, wantDist := serialArgNearest(x, centers, k, d)
	same := func(best int, dist float64) bool {
		return best == wantBest && math.Float64bits(dist) == math.Float64bits(wantDist)
	}
	if best, dist := ArgNearest(x, centers, k, d); !same(best, dist) {
		t.Fatalf("d=%d k=%d: ArgNearest (%d, %v), serial (%d, %v)", d, k, best, dist, wantBest, wantDist)
	}
	if best, dist := NearestCentroid(x, blocked, k); !same(best, dist) {
		t.Fatalf("d=%d k=%d: %s kernel (%d, %v %#x), serial (%d, %v %#x)", d, k, Kernel(),
			best, dist, math.Float64bits(dist), wantBest, wantDist, math.Float64bits(wantDist))
	}
	if best, dist := nearestGo(x, blocked); !same(best, dist) {
		t.Fatalf("d=%d k=%d: go kernel (%d, %v %#x), serial (%d, %v %#x)", d, k,
			best, dist, math.Float64bits(dist), wantBest, wantDist, math.Float64bits(wantDist))
	}
}

// TestNearestCentroidMatchesArgNearest is the differential test of the
// blocked kernel: widths 1–16 and 37, every centroid count 1–300 (all
// residues mod 4, so every padding), duplicated centroids and exact
// hits, then the same with NaN, ±Inf, huge and denormal components
// laced in.
func TestNearestCentroidMatchesArgNearest(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	widths := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 37}
	for _, d := range widths {
		for k := 1; k <= 300; k++ {
			x, centers := nearestShape(rng, k, d)
			assertNearestMatches(t, x, centers, k)
		}
	}
	specials := []float32{
		float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
		math.SmallestNonzeroFloat32, 1e-41, math.MaxFloat32, -math.MaxFloat32, 1e19,
	}
	for _, d := range widths {
		for _, k := range []int{1, 2, 3, 4, 5, 9, 64, 255, 256} {
			for trial := 0; trial < 10; trial++ {
				x, centers := nearestShape(rng, k, d)
				for _, v := range [][]float32{x, centers} {
					for i := range v {
						if rng.Intn(8) == 0 {
							v[i] = specials[rng.Intn(len(specials))]
						}
					}
				}
				assertNearestMatches(t, x, centers, k)
			}
		}
	}
}

func TestBlockCentroidsLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, d := range []int{1, 3, 8} {
		for _, k := range []int{1, 4, 6, 13} {
			_, centers := nearestShape(rng, k, d)
			blocked := BlockCentroids(make([]float32, 3), centers, k, d)
			if len(blocked) != blockedLen(k, d) || len(blocked)%(4*d) != 0 {
				t.Fatalf("d=%d k=%d: blocked length %d", d, k, len(blocked))
			}
			row := make([]float32, d)
			for c := 0; c < len(blocked)/d; c++ {
				BlockedCentroid(row, blocked, c)
				for j, v := range row {
					if c < k && math.Float32bits(v) != math.Float32bits(centers[c*d+j]) {
						t.Fatalf("d=%d k=%d: centroid %d dim %d = %v, want %v", d, k, c, j, v, centers[c*d+j])
					}
					if c >= k && !math.IsNaN(float64(v)) {
						t.Fatalf("d=%d k=%d: padding centroid %d dim %d = %v, want NaN", d, k, c, j, v)
					}
				}
			}
		}
	}
}

// FuzzNearestCentroid lets the fuzzer choose every component bit by bit
// (raw is split into the query and the centroids, so NaN payloads,
// infinities and denormals all occur), the width and the centroid
// count, and holds the dispatched kernel and the Go fallback to
// ArgNearest and the serial definition.
func FuzzNearestCentroid(f *testing.F) {
	seed := func(d, k int, s int64) {
		rng := rand.New(rand.NewSource(s))
		x, centers := nearestShape(rng, k, d)
		raw := make([]byte, 0, 4*(d+k*d))
		for _, v := range append(x, centers...) {
			raw = binary.LittleEndian.AppendUint32(raw, math.Float32bits(v))
		}
		f.Add(raw, uint8(d))
	}
	seed(8, 256, 1)
	seed(2, 7, 2)
	seed(5, 13, 3)
	seed(16, 33, 4)
	f.Add([]byte{0, 0, 0xc0, 0x7f, 0, 0, 0x80, 0x7f, 1, 0, 0, 0, 0, 0, 0x80, 0xff}, uint8(1)) // NaN | +Inf, denormal, -Inf
	f.Fuzz(func(t *testing.T, raw []byte, dd uint8) {
		d := 1 + int(dd)%40
		k := min(len(raw)/4/d-1, 300)
		if k < 1 {
			return
		}
		v := make([]float32, (k+1)*d)
		for i := range v {
			v[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
		}
		assertNearestMatches(t, v[:d], v[d:], k)
	})
}

// BenchmarkNearestCentroid is one query against the re-ranker's
// codebook shape, 256 centroids of width 8: ArgNearest on the row-major
// codebook, then the blocked kernel as the Go fallback and in AVX2.
func BenchmarkNearestCentroid(b *testing.B) {
	const k, d = 256, 8
	rng := rand.New(rand.NewSource(8))
	centers := make([]float32, k*d)
	for i := range centers {
		centers[i] = float32(rng.NormFloat64())
	}
	queries := make([][]float32, 64)
	for i := range queries {
		queries[i] = make([]float32, d)
		for j := range queries[i] {
			queries[i][j] = float32(rng.NormFloat64())
		}
	}
	blocked := BlockCentroids(nil, centers, k, d)
	var sink int
	b.Run("reference", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c, _ := ArgNearest(queries[i%len(queries)], centers, k, d)
			sink += c
		}
	})
	b.Run("go", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c, _ := nearestGo(queries[i%len(queries)], blocked)
			sink += c
		}
	})
	b.Run("avx2", func(b *testing.B) {
		if Kernel() != "avx2" {
			b.Skip("no AVX2 on this CPU")
		}
		for i := 0; i < b.N; i++ {
			c, _ := NearestCentroid(queries[i%len(queries)], blocked, k)
			sink += c
		}
	})
	benchSink = float64(sink)
}
