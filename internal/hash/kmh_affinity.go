package hash

import (
	"math"

	"gqr/internal/cluster"
	"gqr/internal/vecmath"
)

// Affinity-preserving refinement for K-means hashing (He, Wen & Sun,
// CVPR 2013). Plain k-means makes codewords quantize well but their
// binary indices carry no geometry; KMH's extra objective aligns the
// Euclidean distance between codewords with (scaled) Hamming distance
// between their indices:
//
//	E_aff = Σ_{i<j} w_ij · (‖c_i − c_j‖ − s·√h(i,j))²
//
// with w_ij = n_i·n_j (bucket-population products) and h the Hamming
// distance of the indices. Minimizing E_quan + λ·E_aff alternates
// between assignments, a closed-form scale update
//
//	s = Σ w_ij·d_ij·√h_ij / Σ w_ij·h_ij,
//
// and per-centroid fixed-point updates derived from ∇E = 0:
//
//	c_i ← [Σ_{x∈i} x + 2λ·Σ_j w_ij·(1 − s√h_ij/d_ij)·c_j] /
//	      [n_i + 2λ·Σ_j w_ij·(1 − s√h_ij/d_ij)]

// affinityError computes E_aff for a codebook given the current scale.
func affinityError(centroids []float32, k, dims int, counts []int, s float64) float64 {
	var e float64
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			w := float64(counts[i]) * float64(counts[j])
			if w == 0 {
				continue
			}
			d := vecmath.L2(centroids[i*dims:(i+1)*dims], centroids[j*dims:(j+1)*dims])
			target := s * math.Sqrt(float64(hammingInt(i, j)))
			diff := d - target
			e += w * diff * diff
		}
	}
	return e
}

func hammingInt(a, b int) int {
	x := a ^ b
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

// affinityScale solves the closed-form s update.
func affinityScale(centroids []float32, k, dims int, counts []int) float64 {
	var num, den float64
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			w := float64(counts[i]) * float64(counts[j])
			if w == 0 {
				continue
			}
			h := float64(hammingInt(i, j))
			d := vecmath.L2(centroids[i*dims:(i+1)*dims], centroids[j*dims:(j+1)*dims])
			num += w * d * math.Sqrt(h)
			den += w * h
		}
	}
	if den == 0 {
		return 1
	}
	return num / den
}

// refineAffinity runs the affinity-preserving alternation on one
// subspace codebook, in place. data is the n×dims subspace block;
// lambda weighs E_aff (per-pair, normalized below by n² so the two
// objective terms are comparable at any dataset size). The assignment
// scan fans out over points and the sum accumulation over centroids
// (cluster.AccumulateByCentroid), so the refinement is bit-for-bit
// identical at any procs.
func refineAffinity(data []float32, n, dims int, centroids []float32, k int, lambda float64, sweeps, procs int) {
	if lambda <= 0 || sweeps <= 0 {
		return
	}
	assign := make([]int, n)
	counts := make([]int, k)
	sums := make([]float64, k*dims)
	// Normalize the pair weights so λ is scale-free: w_ij = n_i·n_j/n,
	// which makes λ·Σ_j w_ij comparable to the quantization term's n_i
	// at any dataset size.
	norm := 1 / float64(n)
	var blocked []float32

	for sweep := 0; sweep < sweeps; sweep++ {
		// Assignment step (standard nearest-centroid, over the blocked
		// codebook the four-lane kernel reads).
		blocked = vecmath.BlockCentroids(blocked, centroids, k, dims)
		vecmath.ParallelRanges(n, procs, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				assign[i], _ = vecmath.NearestCentroid(data[i*dims:(i+1)*dims], blocked, k)
			}
		})
		cluster.AccumulateByCentroid(data, n, dims, assign, counts, sums, k, procs)
		s := affinityScale(centroids, k, dims, counts)

		// Per-centroid fixed-point update.
		newCent := make([]float32, len(centroids))
		copy(newCent, centroids)
		for i := 0; i < k; i++ {
			num := make([]float64, dims)
			copy(num, sums[i*dims:(i+1)*dims])
			den := float64(counts[i])
			ci := centroids[i*dims : (i+1)*dims]
			for j := 0; j < k; j++ {
				if j == i {
					continue
				}
				w := float64(counts[i]) * float64(counts[j]) * norm
				if w == 0 {
					continue
				}
				cj := centroids[j*dims : (j+1)*dims]
				d := vecmath.L2(ci, cj)
				if d == 0 {
					continue
				}
				target := s * math.Sqrt(float64(hammingInt(i, j)))
				coeff := 2 * lambda * w * (1 - target/d)
				for c := 0; c < dims; c++ {
					num[c] += coeff * float64(cj[c])
				}
				den += coeff
			}
			if den <= 1e-12 {
				continue // degenerate; keep the centroid
			}
			// Damped update: the fixed point is not a contraction in
			// general, so blend toward it for stability.
			const alpha = 0.5
			dst := newCent[i*dims : (i+1)*dims]
			for c := 0; c < dims; c++ {
				dst[c] = float32((1-alpha)*float64(ci[c]) + alpha*num[c]/den)
			}
		}
		copy(centroids, newCent)
	}
}
