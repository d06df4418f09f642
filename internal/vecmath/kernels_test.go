package vecmath

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSquaredL2Known(t *testing.T) {
	a := []float32{0, 0, 0}
	b := []float32{1, 2, 2}
	if d := SquaredL2(a, b); d != 9 {
		t.Fatalf("SquaredL2 = %g, want 9", d)
	}
	if d := L2(a, b); d != 3 {
		t.Fatalf("L2 = %g, want 3", d)
	}
}

func TestSquaredL2OddLengths(t *testing.T) {
	// Exercise the tail loop for lengths not divisible by 4.
	for _, n := range []int{1, 2, 3, 5, 7, 9} {
		a := make([]float32, n)
		b := make([]float32, n)
		for i := range a {
			a[i] = float32(i)
			b[i] = float32(i + 1)
		}
		if d := SquaredL2(a, b); d != float64(n) {
			t.Fatalf("n=%d SquaredL2=%g want %d", n, d, n)
		}
	}
}

func TestSquaredL2Properties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(32)
		a := make([]float32, n)
		b := make([]float32, n)
		for i := range a {
			a[i] = float32(rng.NormFloat64())
			b[i] = float32(rng.NormFloat64())
		}
		// Symmetry, identity, non-negativity.
		if SquaredL2(a, b) != SquaredL2(b, a) {
			return false
		}
		if SquaredL2(a, a) != 0 {
			return false
		}
		return SquaredL2(a, b) >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDotAndNorm(t *testing.T) {
	a := []float32{1, 2, 3}
	b := []float32{4, -5, 6}
	if d := Dot(a, b); d != 12 {
		t.Fatalf("Dot = %g, want 12", d)
	}
	if n := Norm([]float32{3, 4}); n != 5 {
		t.Fatalf("Norm = %g, want 5", n)
	}
	if n := Norm64([]float64{3, 4}); n != 5 {
		t.Fatalf("Norm64 = %g, want 5", n)
	}
}

// referenceDot/referenceNorm are the pre-unroll single-accumulator
// kernels; the unrolled versions must agree to float64 rounding.
func referenceDot(a, b []float32) float64 {
	var s float64
	for i, v := range a {
		s += float64(v) * float64(b[i])
	}
	return s
}

func TestDotNormUnrolledMatchReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(70) // crosses several unroll boundaries
		a := make([]float32, n)
		b := make([]float32, n)
		var ref float64
		for i := range a {
			a[i] = float32(rng.NormFloat64())
			b[i] = float32(rng.NormFloat64())
		}
		ref = referenceDot(a, b)
		scale := math.Abs(ref) + 1
		if math.Abs(Dot(a, b)-ref) > 1e-12*scale {
			return false
		}
		nref := math.Sqrt(referenceDot(a, a))
		return math.Abs(Norm(a)-nref) <= 1e-12*(nref+1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSquaredL2BoundedInfMatchesExact(t *testing.T) {
	// With bound = +Inf the bounded kernel must be bit-for-bit identical
	// to SquaredL2 — the accumulation order is the same, so not even a
	// rounding difference is tolerated.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(100)
		a := make([]float32, n)
		b := make([]float32, n)
		for i := range a {
			a[i] = float32(rng.NormFloat64())
			b[i] = float32(rng.NormFloat64())
		}
		return SquaredL2Bounded(a, b, math.Inf(1)) == SquaredL2(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// checkBoundedContract asserts the early-abandon invariant for one
// (a, b, bound) triple: r ≤ bound ⇒ r is the exact distance; r > bound ⇒
// the exact distance is ≥ r (so the candidate provably fails the bound).
func checkBoundedContract(t *testing.T, a, b []float32, bound float64) {
	t.Helper()
	exact := SquaredL2(a, b)
	r := SquaredL2Bounded(a, b, bound)
	if r <= bound {
		if r != exact {
			t.Fatalf("bound=%g: returned %g ≤ bound but exact is %g", bound, r, exact)
		}
	} else {
		if exact < r {
			t.Fatalf("bound=%g: abandoned with partial %g > exact %g (not a lower bound)", bound, r, exact)
		}
	}
}

func TestSquaredL2BoundedContractRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(96)
		a := make([]float32, n)
		b := make([]float32, n)
		for i := range a {
			a[i] = float32(rng.NormFloat64())
			b[i] = float32(rng.NormFloat64())
		}
		exact := SquaredL2(a, b)
		// Bounds around the exact distance, including 0 and fractions of
		// it, exercise both completion and abandonment.
		for _, bound := range []float64{0, exact * 0.1, exact * 0.5, exact * 0.99, exact, exact * 1.01, math.Inf(1)} {
			checkBoundedContract(t, a, b, bound)
		}
	}
}

func TestSquaredL2BoundedAdversarialNearBound(t *testing.T) {
	// Adversarial case: the partial sum sits exactly at the bound on a
	// block boundary and the remaining dims contribute nothing. The
	// kernel must NOT abandon (check is strict >), because an exact tie
	// decides heap admission by id and the caller needs the true value.
	a := make([]float32, 32)
	b := make([]float32, 32)
	for i := 0; i < 16; i++ {
		a[i], b[i] = 1, 0 // first block sums to exactly 16
	}
	exact := SquaredL2(a, b)
	if exact != 16 {
		t.Fatalf("setup: exact = %g", exact)
	}
	if r := SquaredL2Bounded(a, b, 16); r != 16 {
		t.Fatalf("partial == bound must complete exactly: got %g", r)
	}
	// One ulp below: now the first block already exceeds the bound and
	// the kernel abandons with a partial ≥ the true distance floor.
	below := math.Nextafter(16, 0)
	if r := SquaredL2Bounded(a, b, below); r <= below {
		t.Fatalf("bound %g: got %g, want abandonment with r > bound", below, r)
	}
	// Mass after the boundary: bound met at block 1 but distance keeps
	// growing; abandonment must still lower-bound the true distance.
	b[20] = 5
	checkBoundedContract(t, a, b, 16)
	if r := SquaredL2Bounded(a, b, 16); r > SquaredL2(a, b) {
		t.Fatalf("partial %g exceeds exact %g", r, SquaredL2(a, b))
	}
}

// offsetCopy returns a copy of v that starts off floats into a fresh
// allocation, so the kernel's loads are 4·off bytes past any alignment
// the allocator gives.
func offsetCopy(v []float32, off int) []float32 {
	buf := make([]float32, off+len(v))
	copy(buf[off:], v)
	return buf[off:]
}

// kernelBounds are the bounds worth trying against one pair: fixed
// ones, and for each partial sum a block check can see (every complete
// block of 16 — the last is the exact distance when 16 divides the
// length — plus the exact distance) the value itself and its two
// float64 neighbours, where the strict > decides.
func kernelBounds(a, b []float32) []float64 {
	bounds := []float64{-1, 0, math.Inf(1), math.NaN()}
	ends := []int{len(a)}
	for e := boundedBlock; e < len(a) && e <= 4*boundedBlock; e += boundedBlock {
		ends = append(ends, e)
	}
	for _, e := range ends {
		d := squaredL2BoundedGo(a[:e], b[:e], math.Inf(1))
		bounds = append(bounds, d, math.Nextafter(d, math.Inf(-1)), math.Nextafter(d, math.Inf(1)))
	}
	return bounds
}

// assertKernelMatchesGo holds the serving kernel to its definition:
// whatever squaredL2Bounded dispatches to must return the bits of
// squaredL2BoundedGo, whether the run completes or abandons, and
// SquaredL2 those of the reference at +Inf. Two NaNs count as equal:
// which operand's payload an x86 addition of two NaNs keeps depends on
// register allocation, in the compiled reference as much as in assembly.
func assertKernelMatchesGo(t *testing.T, a, b []float32, bound float64) {
	t.Helper()
	same := func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y) || (math.IsNaN(x) && math.IsNaN(y))
	}
	if got, want := SquaredL2Bounded(a, b, bound), squaredL2BoundedGo(a, b, bound); !same(got, want) {
		t.Fatalf("%s kernel, len %d, bound %v (%#x): %v (%#x), Go reference %v (%#x)",
			Kernel(), len(a), bound, math.Float64bits(bound), got, math.Float64bits(got), want, math.Float64bits(want))
	}
	if got, want := SquaredL2(a, b), squaredL2BoundedGo(a, b, math.Inf(1)); !same(got, want) {
		t.Fatalf("%s kernel, len %d: SquaredL2 %v (%#x), Go reference %v (%#x)",
			Kernel(), len(a), got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// TestSquaredL2BoundedMatchesGoBitForBit is the differential test of the
// assembly kernel (a tautology where Kernel() is "go"): every length
// 0–67 plus the benchmark's 128 and 960 — empty slices, tails of 1–15,
// non-multiples of 4 — at every pair of sub-slice offsets 0–3, over
// ordinary, huge, denormal and NaN/±Inf-laced components, against
// bounds that sit on, just under and just over every partial sum a
// block check compares.
func TestSquaredL2BoundedMatchesGoBitForBit(t *testing.T) {
	lengths := []int{128, 960}
	for n := 0; n <= 67; n++ {
		lengths = append(lengths, n)
	}
	specials := []float32{
		float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
		math.SmallestNonzeroFloat32, -1e-40, math.MaxFloat32, -math.MaxFloat32, 0,
	}
	fills := map[string]func(rng *rand.Rand) float32{
		"gaussian": func(rng *rand.Rand) float32 { return float32(rng.NormFloat64()) },
		"denormal": func(rng *rand.Rand) float32 { return float32(rng.NormFloat64()) * 1e-41 },
		"huge":     func(rng *rand.Rand) float32 { return float32(rng.NormFloat64()) * 1e38 },
		"laced": func(rng *rand.Rand) float32 {
			if rng.Intn(6) == 0 {
				return specials[rng.Intn(len(specials))]
			}
			return float32(rng.NormFloat64())
		},
	}
	for name, fill := range fills {
		rng := rand.New(rand.NewSource(int64(len(name))))
		for _, n := range lengths {
			a, b := make([]float32, n), make([]float32, n)
			for i := range a {
				a[i], b[i] = fill(rng), fill(rng)
			}
			bounds := kernelBounds(a, b)
			for offA := 0; offA < 4; offA++ {
				for offB := 0; offB < 4; offB++ {
					ao, bo := offsetCopy(a, offA), offsetCopy(b, offB)
					for _, bound := range bounds {
						assertKernelMatchesGo(t, ao, bo, bound)
					}
				}
			}
		}
	}
}

// FuzzSquaredL2Bounded lets the fuzzer choose the components bit by
// bit (raw is split into two float32 vectors, so NaN payloads,
// infinities and denormals all occur), the sub-slice offsets and the
// bound, and checks the serving kernel against its Go definition bit
// for bit, then the early-abandon contract itself.
func FuzzSquaredL2Bounded(f *testing.F) {
	seed := func(n int, s int64, off uint8, bound float64) {
		rng := rand.New(rand.NewSource(s))
		raw := make([]byte, 8*n)
		for i := 0; i < 2*n; i++ {
			binary.LittleEndian.PutUint32(raw[4*i:], math.Float32bits(float32(rng.NormFloat64())))
		}
		f.Add(raw, off, bound)
	}
	seed(8, 1, 0, 0.5)
	seed(33, 9, 7, 0)
	seed(64, 3, 2, math.Inf(1))
	seed(128, 5, 13, 200)
	seed(67, 6, 9, math.NaN())
	f.Add([]byte{0, 0, 0xc0, 0x7f, 0, 0, 0x80, 0x7f, 1, 0, 0, 0, 0, 0, 0x80, 0xff}, uint8(5), float64(-1)) // NaN, +Inf | denormal, -Inf
	f.Fuzz(func(t *testing.T, raw []byte, off uint8, bound float64) {
		n := min(len(raw)/8, 960)
		a, b := make([]float32, n), make([]float32, n)
		for i := range a {
			a[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
			b[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*(n+i):]))
		}
		a, b = offsetCopy(a, int(off&3)), offsetCopy(b, int(off>>2&3))
		assertKernelMatchesGo(t, a, b, bound)
		for _, kb := range kernelBounds(a, b) {
			assertKernelMatchesGo(t, a, b, kb)
		}

		exact := SquaredL2(a, b)
		if math.IsNaN(exact) || math.IsNaN(bound) {
			return // the contract below is stated over ordered values
		}
		r := SquaredL2Bounded(a, b, bound)
		if r <= bound && r != exact {
			t.Fatalf("bound %g: completed with %g != exact %g", bound, r, exact)
		}
		if r > bound && exact < r {
			t.Fatalf("bound %g: partial %g not a lower bound of %g", bound, r, exact)
		}
	})
}

// serialArgNearest is the definition ArgNearest and NearestCentroid are
// held to, written out serially: every centroid's full float64 sum,
// dimension j ascending, each difference and square rounded on its own
// (no fused multiply-add), and the first strict minimum winning, so a
// tie goes to the lowest index. With no finite distance it returns
// (0, +Inf).
func serialArgNearest(x, centers []float32, k, d int) (int, float64) {
	best, bestDist := 0, math.Inf(1)
	for c := 0; c < k; c++ {
		var s float64
		for j := 0; j < d; j++ {
			diff := float64(x[j]) - float64(centers[c*d+j])
			s += float64(diff * diff)
		}
		if s < bestDist {
			best, bestDist = c, s
		}
	}
	return best, bestDist
}

// nearestShape draws one nearest-centroid problem: k centroids of width
// d, a fifth of them copies of an earlier one (ties the lowest index
// must win), and a query that is, one time in three, exactly a
// centroid (a distance-0 hit, often duplicated).
func nearestShape(rng *rand.Rand, k, d int) (x, centers []float32) {
	centers = make([]float32, k*d)
	for c := 0; c < k; c++ {
		row := centers[c*d : (c+1)*d]
		if c > 0 && rng.Intn(5) == 0 {
			copy(row, centers[rng.Intn(c)*d:])
			continue
		}
		for j := range row {
			row[j] = float32(rng.NormFloat64())
		}
	}
	x = make([]float32, d)
	if rng.Intn(3) == 0 {
		copy(x, centers[rng.Intn(k)*d:])
	} else {
		for j := range x {
			x[j] = float32(rng.NormFloat64())
		}
	}
	return x, centers
}

// TestArgNearestExhaustive holds ArgNearest, early abandonment and all,
// to the serial definition: the same index and the same distance bits,
// over widths 1–16 and 37, centroid counts 1–40 and 256, duplicated
// centroids and exact hits.
func TestArgNearestExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, d := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 37} {
		for _, k := range []int{1, 2, 3, 4, 5, 7, 8, 9, 17, 40, 256} {
			for trial := 0; trial < 20; trial++ {
				x, centers := nearestShape(rng, k, d)
				best, bestDist := ArgNearest(x, centers, k, d)
				wantBest, wantDist := serialArgNearest(x, centers, k, d)
				if best != wantBest || math.Float64bits(bestDist) != math.Float64bits(wantDist) {
					t.Fatalf("d=%d k=%d: ArgNearest=(%d,%v) want (%d,%v)", d, k, best, bestDist, wantBest, wantDist)
				}
			}
		}
	}
}

func TestKernelLengthPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"SquaredL2": func() { SquaredL2([]float32{1}, []float32{1, 2}) },
		"SquaredL2Bounded": func() {
			SquaredL2Bounded([]float32{1, 2}, []float32{1}, 0)
		},
		"Dot": func() { Dot([]float32{1}, []float32{1, 2}) },
		"ArgNearest": func() {
			ArgNearest([]float32{1}, []float32{1, 2}, 1, 2)
		},
		"NearestCentroid": func() {
			NearestCentroid([]float32{1, 2}, make([]float32, 4), 1)
		},
		"NearestCentroid empty x":        func() { NearestCentroid(nil, nil, 1) },
		"NearestCentroid no centroids":   func() { NearestCentroid([]float32{1}, nil, 0) },
		"BlockCentroids short centroids": func() { BlockCentroids(nil, make([]float32, 3), 2, 2) },
		"ADCRow codebook too short": func() {
			ADCRow(make([]float32, 5), []float32{1, 2}, make([]float32, 12))
		},
		"ADCRow empty q": func() { ADCRow(make([]float32, 4), nil, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s must panic on length mismatch", name)
				}
			}()
			fn()
		}()
	}
}

func BenchmarkSquaredL2Dim32(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := make([]float32, 32)
	y := make([]float32, 32)
	for i := range x {
		x[i] = float32(rng.NormFloat64())
		y[i] = float32(rng.NormFloat64())
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += SquaredL2(x, y)
	}
	benchSink = sink
}

// benchKernelVecs builds a deterministic pair of dim-n vectors.
func benchKernelVecs(n int, seed int64) (x, y []float32) {
	rng := rand.New(rand.NewSource(seed))
	x = make([]float32, n)
	y = make([]float32, n)
	for i := range x {
		x[i] = float32(rng.NormFloat64())
		y[i] = float32(rng.NormFloat64())
	}
	return x, y
}

func BenchmarkSquaredL2BoundedDim128Complete(b *testing.B) {
	// Bound above the distance: the kernel always runs to completion, so
	// this measures the pure overhead of the blockwise checks.
	x, y := benchKernelVecs(128, 3)
	bound := SquaredL2(x, y) + 1
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += SquaredL2Bounded(x, y, bound)
	}
	benchSink = sink
}

func BenchmarkSquaredL2BoundedDim128Abandon(b *testing.B) {
	// Tight bound: the kernel abandons after the first block — the
	// steady-state case once the top-k heap is full of near neighbors.
	x, y := benchKernelVecs(128, 4)
	bound := SquaredL2(x[:16], y[:16]) / 2
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += SquaredL2Bounded(x, y, bound)
	}
	benchSink = sink
}

func BenchmarkDotDim32(b *testing.B) {
	x, y := benchKernelVecs(32, 5)
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += Dot(x, y)
	}
	benchSink = sink
}

func BenchmarkNormDim32(b *testing.B) {
	x, _ := benchKernelVecs(32, 6)
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += Norm(x)
	}
	benchSink = sink
}

func BenchmarkMulVec32Proj(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	m := GaussianMat(rng, 14, 32) // typical projection: 14 bits × 32 dims
	x := make([]float32, 32)
	for i := range x {
		x[i] = float32(rng.NormFloat64())
	}
	dst := make([]float64, 14)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulVec32(m, x, dst)
	}
}

var benchSink float64
