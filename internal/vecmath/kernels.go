package vecmath

import "math"

// SquaredL2 returns the squared Euclidean distance between a and b: the
// bounded kernel with a bound no partial sum exceeds.
func SquaredL2(a, b []float32) float64 {
	if len(a) != len(b) {
		panic("vecmath: SquaredL2 length mismatch")
	}
	return squaredL2Bounded(a, b, math.Inf(1))
}

// L2 returns the Euclidean distance between a and b.
func L2(a, b []float32) float64 { return math.Sqrt(SquaredL2(a, b)) }

// boundedBlock is how many dimensions SquaredL2Bounded accumulates
// between partial-sum checks: four 4-wide steps. Checking every
// iteration would serialize the four accumulator chains behind a
// compare; once per 16 dims keeps the ILP of SquaredL2 while still
// abandoning hopeless candidates after at most one block of extra work.
const boundedBlock = 16

// SquaredL2Bounded is SquaredL2 with early abandonment: whenever the
// partial sum crosses a block boundary and already exceeds bound, the
// remaining dimensions are skipped and the partial sum is returned.
//
// The contract callers rely on (the evaluation stage's early-abandon
// invariant):
//
//   - if the returned value r ≤ bound, r is the exact squared distance
//     (bit-for-bit what SquaredL2 returns — the accumulation order is
//     identical, and a completed run never depends on bound);
//   - if r > bound, r is a partial sum, hence a lower bound: the exact
//     squared distance is ≥ r > bound. The candidate can be discarded
//     without affecting any result whose acceptance test is "≤ bound".
//
// With bound = +Inf no check ever fires and the result equals
// SquaredL2(a, b) exactly.
//
// The returned bits are defined by squaredL2BoundedGo. squaredL2Bounded
// is that function, or on amd64 an assembly kernel that performs the
// same float64 operations in the same order (Kernel names which).
func SquaredL2Bounded(a, b []float32, bound float64) float64 {
	if len(a) != len(b) {
		panic("vecmath: SquaredL2Bounded length mismatch")
	}
	return squaredL2Bounded(a, b, bound)
}

// squaredL2BoundedGo is the kernel's definition, the fallback off amd64
// and the oracle the assembly is tested against. The summation order is
// the contract: dimension i is widened to float64, differenced, squared
// and added — four separately rounded operations — into lane s[i mod 4]
// while at least four dimensions remain, the last len mod 4 dimensions
// into s0; after every complete block of 16 dimensions ((s0+s1)+s2)+s3
// is compared to bound with a strict >, which a NaN bound never
// satisfies; the result is that same reduction. The float64(…) around
// each product is what forbids fusing it into the addition (the
// compiler would on arm64), so the bits are the same on every GOARCH.
func squaredL2BoundedGo(a, b []float32, bound float64) float64 {
	b = b[:len(a)] // bounds-check hint
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+boundedBlock <= len(a); i += boundedBlock {
		for j := i; j < i+boundedBlock; j += 4 {
			d0 := float64(a[j]) - float64(b[j])
			d1 := float64(a[j+1]) - float64(b[j+1])
			d2 := float64(a[j+2]) - float64(b[j+2])
			d3 := float64(a[j+3]) - float64(b[j+3])
			s0 += float64(d0 * d0)
			s1 += float64(d1 * d1)
			s2 += float64(d2 * d2)
			s3 += float64(d3 * d3)
		}
		if s0+s1+s2+s3 > bound {
			return s0 + s1 + s2 + s3
		}
	}
	for ; i+4 <= len(a); i += 4 {
		d0 := float64(a[i]) - float64(b[i])
		d1 := float64(a[i+1]) - float64(b[i+1])
		d2 := float64(a[i+2]) - float64(b[i+2])
		d3 := float64(a[i+3]) - float64(b[i+3])
		s0 += float64(d0 * d0)
		s1 += float64(d1 * d1)
		s2 += float64(d2 * d2)
		s3 += float64(d3 * d3)
	}
	for ; i < len(a); i++ {
		d := float64(a[i]) - float64(b[i])
		s0 += float64(d * d)
	}
	return s0 + s1 + s2 + s3
}

// Dot returns the dot product of a and b. Unrolled four-wide like
// SquaredL2 (it sits on the QueryProjection retrieval path).
func Dot(a, b []float32) float64 {
	if len(a) != len(b) {
		panic("vecmath: Dot length mismatch")
	}
	b = b[:len(a)]
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		s0 += float64(a[i]) * float64(b[i])
		s1 += float64(a[i+1]) * float64(b[i+1])
		s2 += float64(a[i+2]) * float64(b[i+2])
		s3 += float64(a[i+3]) * float64(b[i+3])
	}
	for ; i < len(a); i++ {
		s0 += float64(a[i]) * float64(b[i])
	}
	return s0 + s1 + s2 + s3
}

// Norm returns the Euclidean norm of a. Unrolled four-wide like
// SquaredL2.
func Norm(a []float32) float64 {
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		s0 += float64(a[i]) * float64(a[i])
		s1 += float64(a[i+1]) * float64(a[i+1])
		s2 += float64(a[i+2]) * float64(a[i+2])
		s3 += float64(a[i+3]) * float64(a[i+3])
	}
	for ; i < len(a); i++ {
		s0 += float64(a[i]) * float64(a[i])
	}
	return math.Sqrt(s0 + s1 + s2 + s3)
}

// Norm64 returns the Euclidean norm of a float64 vector.
func Norm64(a []float64) float64 {
	var s float64
	for _, v := range a {
		s += v * v
	}
	return math.Sqrt(s)
}

// ArgNearest returns the index of the row of centers (k rows of dimension
// d, row-major) nearest to x in squared Euclidean distance, along with
// that distance; a tie goes to the lowest index. It abandons a centroid
// once its partial sum reaches the best so far. It is the definition
// NearestCentroid (k-means assignment and PQ encoding over a blocked
// codebook) is tested against, and what callers holding row-major
// centroids use. The float64(…) around the square forbids fusing it into
// the addition, so the bits are the same on every GOARCH.
func ArgNearest(x []float32, centers []float32, k, d int) (best int, bestDist float64) {
	if len(x) != d || len(centers) != k*d {
		panic("vecmath: ArgNearest shape mismatch")
	}
	bestDist = math.Inf(1)
	for c := 0; c < k; c++ {
		row := centers[c*d : (c+1)*d]
		var s float64
		for j, v := range row {
			diff := float64(x[j]) - float64(v)
			s += float64(diff * diff)
			if s >= bestDist {
				break
			}
		}
		if s < bestDist {
			bestDist = s
			best = c
		}
	}
	return best, bestDist
}
