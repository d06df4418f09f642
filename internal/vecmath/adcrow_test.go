package vecmath

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// serialADCRow is the definition ADCRow is held to, written out one
// centroid at a time over the row-major centers: at width 4 the
// pairwise sum (d0²+d1²)+(d2²+d3²), at every other width the sequential
// sum from +0, dimension j ascending; every difference, square and sum
// rounded to float32 on its own.
func serialADCRow(row, q, centers []float32) {
	d := len(q)
	for c := range row {
		e := centers[c*d : (c+1)*d]
		if d == 4 {
			d0, d1, d2, d3 := q[0]-e[0], q[1]-e[1], q[2]-e[2], q[3]-e[3]
			row[c] = (float32(d0*d0) + float32(d1*d1)) + (float32(d2*d2) + float32(d3*d3))
			continue
		}
		var s float32
		for j, x := range q {
			diff := x - e[j]
			s += float32(diff * diff)
		}
		row[c] = s
	}
}

// sameF32 is bit equality, except that any NaN equals any NaN: which
// operand's payload a NaN result carries is the hardware's choice, not
// part of the contract.
func sameF32(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b) || (a != a && b != b)
}

// adcSentinel fills the table memory around a row; a distance is never
// negative, so a kernel that writes it over has written out of bounds.
const adcSentinel = float32(-1.5)

// assertADCRowMatches holds ADCRow (the dispatched kernel, AVX2 where
// the CPU has it) and the Go fallback to serialADCRow, bit for bit,
// writing the row in two placements: inside a flat table with
// sentinels just before and just after it, and as the head of a
// stride-256 row followed by another row, whose sentinels from row[K]
// on must survive.
func assertADCRowMatches(t *testing.T, q, centers []float32, k int) {
	t.Helper()
	d := len(q)
	blocked := BlockCentroids(nil, centers, k, d)
	want := make([]float32, k)
	serialADCRow(want, q, centers)
	for _, arm := range []struct {
		name string
		fill func(row []float32)
	}{
		{Kernel() + " kernel", func(row []float32) { ADCRow(row, q, blocked) }},
		{"go kernel", func(row []float32) { adcRowGo(row, q, blocked) }},
	} {
		flat := make([]float32, k+8)
		var strided [2][256]float32
		for i := range flat {
			flat[i] = adcSentinel
		}
		for i := range strided {
			for j := range strided[i] {
				strided[i][j] = adcSentinel
			}
		}
		for _, placed := range []struct {
			where string
			row   []float32
		}{{"flat", flat[4 : 4+k]}, {"stride-256", strided[0][:k]}} {
			arm.fill(placed.row)
			for c := range want {
				if !sameF32(placed.row[c], want[c]) {
					t.Fatalf("d=%d k=%d %s %s: row[%d] = %v %#x, serial %v %#x", d, k, arm.name, placed.where,
						c, placed.row[c], math.Float32bits(placed.row[c]), want[c], math.Float32bits(want[c]))
				}
			}
		}
		for i, v := range append(append([]float32{}, flat[:4]...), flat[4+k:]...) {
			if v != adcSentinel {
				t.Fatalf("d=%d k=%d %s: flat table entry %d outside the row overwritten with %v", d, k, arm.name, i, v)
			}
		}
		for i, v := range append(strided[0][k:], strided[1][:]...) {
			if v != adcSentinel {
				t.Fatalf("d=%d k=%d %s: stride-256 entry %d past row[K-1] overwritten with %v", d, k, arm.name, k+i, v)
			}
		}
	}
}

// TestADCRowMatchesDefinition is the differential test of the ADC row
// kernel: widths 1–16 and 37 (both summation arms), every centroid
// count 0–256 (every padding of the last group), duplicated centroids
// and exact hits, then the same with NaN, ±Inf, huge and denormal
// components laced in.
func TestADCRowMatchesDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	widths := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 37}
	for _, d := range widths {
		assertADCRowMatches(t, make([]float32, d), nil, 0)
		for k := 1; k <= 256; k++ {
			x, centers := nearestShape(rng, k, d)
			assertADCRowMatches(t, x, centers, k)
		}
	}
	specials := []float32{
		float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
		math.SmallestNonzeroFloat32, 1e-41, math.MaxFloat32, -math.MaxFloat32, 1e19,
	}
	for _, d := range widths {
		for _, k := range []int{1, 2, 3, 4, 5, 9, 17, 30, 64, 255, 256} {
			for trial := 0; trial < 10; trial++ {
				x, centers := nearestShape(rng, k, d)
				for _, v := range [][]float32{x, centers} {
					for i := range v {
						if rng.Intn(8) == 0 {
							v[i] = specials[rng.Intn(len(specials))]
						}
					}
				}
				assertADCRowMatches(t, x, centers, k)
			}
		}
	}
}

// FuzzADCRow lets the fuzzer choose every component bit by bit (raw is
// split into the query subvector and the centroids), the width and the
// centroid count, and holds the dispatched kernel and the Go fallback to
// the serial definition and to the row's bounds.
func FuzzADCRow(f *testing.F) {
	seed := func(d, k int, s int64) {
		rng := rand.New(rand.NewSource(s))
		x, centers := nearestShape(rng, k, d)
		raw := make([]byte, 0, 4*(d+k*d))
		for _, v := range append(x, centers...) {
			raw = binary.LittleEndian.AppendUint32(raw, math.Float32bits(v))
		}
		f.Add(raw, uint8(d-1))
	}
	seed(8, 256, 1)
	seed(4, 30, 2)
	seed(3, 13, 3)
	seed(16, 33, 4)
	f.Add([]byte{0, 0, 0xc0, 0x7f, 0, 0, 0x80, 0x7f, 1, 0, 0, 0, 0, 0, 0x80, 0xff}, uint8(0)) // NaN | +Inf, denormal, -Inf
	f.Fuzz(func(t *testing.T, raw []byte, dd uint8) {
		d := 1 + int(dd)%40
		k := min(len(raw)/4/d-1, 256)
		if k < 1 {
			return
		}
		v := make([]float32, (k+1)*d)
		for i := range v {
			v[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
		}
		assertADCRowMatches(t, v[:d], v[d:], k)
	})
}

// BenchmarkADCRow fills one 256-centroid row at the re-ranker's
// subspace widths (4: the pairwise arm; 8 and 16: the sequential arm),
// as the Go fallback and as the dispatched kernel.
func BenchmarkADCRow(b *testing.B) {
	const k = 256
	rng := rand.New(rand.NewSource(8))
	row := make([]float32, k)
	for _, d := range []int{4, 8, 16} {
		centers := make([]float32, k*d)
		for i := range centers {
			centers[i] = float32(rng.NormFloat64())
		}
		blocked := BlockCentroids(nil, centers, k, d)
		q := make([]float32, d)
		for j := range q {
			q[j] = float32(rng.NormFloat64())
		}
		b.Run(fmt.Sprintf("d%d/go", d), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				adcRowGo(row, q, blocked)
			}
		})
		b.Run(fmt.Sprintf("d%d/%s", d, Kernel()), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ADCRow(row, q, blocked)
			}
		})
	}
	benchSink = float64(row[0])
}
