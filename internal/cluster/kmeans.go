// Package cluster provides Lloyd k-means with k-means++ seeding, the
// shared clustering substrate of K-means hashing (package hash) and
// product quantization (package quantization).
package cluster

import (
	"fmt"
	"math/rand"
	"sync/atomic"

	"gqr/internal/vecmath"
)

// KMeans runs Lloyd iterations on the n×dims row-major block and returns
// k centroids (k×dims, row-major). Seeding is k-means++ (distance-
// weighted); empty clusters are reseeded from random points so no dead
// centroids survive. Deterministic given rng's state. It is the
// single-worker path of KMeansP.
func KMeans(data []float32, n, dims, k, iters int, rng *rand.Rand) ([]float32, error) {
	return KMeansP(data, n, dims, k, iters, rng, 1)
}

// KMeansP is KMeans computed by up to procs workers. The parallel
// stages keep the serial accumulation order exactly, so the returned
// centroids are bit-for-bit identical to KMeans at any parallelism:
//
//   - the assignment step (and the seeding distance scans) splits the
//     points across workers — each point's nearest centroid is an
//     independent computation, so any partition yields the same answer.
//     It is nearly all of the training time; it runs through
//     vecmath.NearestCentroid (no per-dimension branch, AVX2 where the
//     CPU has it), whose answers are vecmath.ArgNearest's bit for bit;
//   - the update step splits the CENTROIDS across workers: each worker
//     scans the assignment array in ascending point order and folds only
//     the points of the centroids it owns, so every per-centroid sum
//     accumulates its contributions in the same order a single worker
//     would. No partial-sum merging, hence no reassociation of
//     floating-point additions;
//   - everything the shared rng feeds (seeding draws, empty-cluster
//     reseeds) stays on one goroutine, in serial order.
func KMeansP(data []float32, n, dims, k, iters int, rng *rand.Rand, procs int) ([]float32, error) {
	if n <= 0 || dims <= 0 || len(data) != n*dims {
		return nil, fmt.Errorf("cluster: invalid data shape n=%d dims=%d len=%d", n, dims, len(data))
	}
	if k <= 0 || k > n {
		return nil, fmt.Errorf("cluster: k=%d out of range [1,%d]", k, n)
	}
	if iters <= 0 {
		iters = 25
	}
	procs = vecmath.Procs(procs)
	if n*dims*k < 1<<14 {
		procs = 1
	}
	centroids := make([]float32, k*dims)

	// k-means++ seeding.
	first := rng.Intn(n)
	copy(centroids[:dims], data[first*dims:(first+1)*dims])
	minDist := make([]float64, n)
	vecmath.ParallelRanges(n, procs, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			minDist[i] = vecmath.SquaredL2(data[i*dims:(i+1)*dims], centroids[:dims])
		}
	})
	for c := 1; c < k; c++ {
		var total float64
		for _, dd := range minDist {
			total += dd
		}
		var pick int
		if total <= 0 {
			pick = rng.Intn(n)
		} else {
			r := rng.Float64() * total
			for i, dd := range minDist {
				r -= dd
				if r <= 0 {
					pick = i
					break
				}
			}
		}
		copy(centroids[c*dims:(c+1)*dims], data[pick*dims:(pick+1)*dims])
		vecmath.ParallelRanges(n, procs, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				dd := vecmath.SquaredL2(data[i*dims:(i+1)*dims], centroids[c*dims:(c+1)*dims])
				if dd < minDist[i] {
					minDist[i] = dd
				}
			}
		})
	}

	assign := make([]int, n)
	counts := make([]int, k)
	sums := make([]float64, k*dims)
	var blocked []float32
	for it := 0; it < iters; it++ {
		blocked = vecmath.BlockCentroids(blocked, centroids, k, dims)
		changed := assignPoints(data, n, dims, blocked, k, assign, it == 0, procs)
		if !changed {
			break
		}
		AccumulateByCentroid(data, n, dims, assign, counts, sums, k, procs)
		for c := 0; c < k; c++ {
			if counts[c] == 0 {
				p := rng.Intn(n)
				copy(centroids[c*dims:(c+1)*dims], data[p*dims:(p+1)*dims])
				continue
			}
			inv := 1 / float64(counts[c])
			dst := centroids[c*dims : (c+1)*dims]
			src := sums[c*dims : (c+1)*dims]
			for j := range dst {
				dst[j] = float32(src[j] * inv)
			}
		}
	}
	return centroids, nil
}

// assignPoints sets assign[i] to the nearest of the k centroids of every
// point, splitting the points across up to procs workers, and reports
// whether any assignment changed (always true when force is set).
// blocked is the centroids in vecmath's blocked layout, laid out once
// per Lloyd iteration and shared read-only by the workers;
// vecmath.NearestCentroid answers exactly as ArgNearest on the row-major
// centroids would. Each entry is an independent computation, so the
// result is identical at any parallelism.
func assignPoints(data []float32, n, dims int, blocked []float32, k int, assign []int, force bool, procs int) bool {
	var changed atomic.Bool
	vecmath.ParallelRanges(n, procs, func(lo, hi int) {
		local := false
		for i := lo; i < hi; i++ {
			best, _ := vecmath.NearestCentroid(data[i*dims:(i+1)*dims], blocked, k)
			if assign[i] != best || force {
				assign[i] = best
				local = true
			}
		}
		if local {
			changed.Store(true)
		}
	})
	return changed.Load()
}

// AccumulateByCentroid folds every point into the count and coordinate
// sum of its assigned centroid, splitting the CENTROIDS across up to
// procs workers. Each worker scans the whole assignment array in
// ascending point order and touches only the accumulators it owns, so
// each centroid's sum is accumulated in exactly the serial order —
// bit-for-bit identical at any parallelism. counts (len k) and sums
// (len k*dims) are zeroed first. Exported for the affinity-preserving
// KMH refinement, which repeats the same assignment/accumulation step.
func AccumulateByCentroid(data []float32, n, dims int, assign []int, counts []int, sums []float64, k, procs int) {
	for i := range sums {
		sums[i] = 0
	}
	for i := range counts {
		counts[i] = 0
	}
	vecmath.ParallelRanges(k, procs, func(cLo, cHi int) {
		for i := 0; i < n; i++ {
			c := assign[i]
			if c < cLo || c >= cHi {
				continue
			}
			counts[c]++
			row := data[i*dims : (i+1)*dims]
			dst := sums[c*dims : (c+1)*dims]
			for j, v := range row {
				dst[j] += float64(v)
			}
		}
	})
}

// QuantizationError returns the mean squared distance from each row to
// its nearest centroid — the k-means objective, used by tests to check
// that training actually descends.
func QuantizationError(data []float32, n, dims int, centroids []float32, k int) float64 {
	var total float64
	for i := 0; i < n; i++ {
		_, d := vecmath.ArgNearest(data[i*dims:(i+1)*dims], centroids, k, dims)
		total += d
	}
	return total / float64(n)
}
