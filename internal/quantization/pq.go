// Package quantization implements the vector-quantization comparison
// system of the paper's §6.5: product quantization (PQ), optimized
// product quantization (OPQ, the state-of-the-art method the paper
// compares against) and the inverted multi-index (IMI) querying
// structure, including asymmetric-distance (ADC) evaluation.
package quantization

import (
	"fmt"
	"math/rand"

	"gqr/internal/cluster"
	"gqr/internal/vecmath"
)

// PQ is a product quantizer: the d-dimensional space is split into M
// contiguous subspaces, each with its own codebook of K centroids
// trained by k-means. A vector is encoded as M centroid indices.
type PQ struct {
	M       int   // number of subspaces
	K       int   // centroids per subspace
	Dim     int   // total dimensionality
	offsets []int // M+1 subspace boundaries
	// codebooks holds, per subspace, its K centroids in vecmath's
	// blocked layout (groups of four, [dim][4]float32 each), the only
	// copy kept: encoding reads it through vecmath.NearestCentroid,
	// everything else through centroid or the per-group loops of
	// Reranker.fillRow.
	codebooks [][]float32
}

// TrainPQ learns a product quantizer from the n×d block.
func TrainPQ(data []float32, n, d, m, k, iters int, seed int64) (*PQ, error) {
	if m <= 0 || m > d {
		return nil, fmt.Errorf("quantization: M=%d out of range [1,%d]", m, d)
	}
	if k <= 0 || k > n {
		return nil, fmt.Errorf("quantization: K=%d out of range [1,%d]", k, n)
	}
	if len(data) != n*d {
		return nil, fmt.Errorf("quantization: data length %d != n*d = %d", len(data), n*d)
	}
	pq := &PQ{M: m, K: k, Dim: d, offsets: make([]int, m+1)}
	off := 0
	rng := rand.New(rand.NewSource(seed))
	for s := 0; s < m; s++ {
		w := d / m
		if s < d%m {
			w++
		}
		pq.offsets[s] = off

		sub := make([]float32, n*w)
		for i := 0; i < n; i++ {
			copy(sub[i*w:(i+1)*w], data[i*d+off:i*d+off+w])
		}
		cb, err := cluster.KMeans(sub, n, w, k, iters, rng)
		if err != nil {
			return nil, fmt.Errorf("quantization: subspace %d: %w", s, err)
		}
		pq.codebooks = append(pq.codebooks, vecmath.BlockCentroids(nil, cb, k, w))
		off += w
	}
	pq.offsets[m] = off
	return pq, nil
}

// width returns the dimensionality of subspace s.
func (pq *PQ) width(s int) int { return pq.offsets[s+1] - pq.offsets[s] }

// centroid copies centroid c of subspace s into dst (length width(s)).
func (pq *PQ) centroid(s, c int, dst []float32) { vecmath.BlockedCentroid(dst, pq.codebooks[s], c) }

// rowMajor returns subspace s's codebook as K×width row-major centroids,
// the order Marshal writes.
func (pq *PQ) rowMajor(s int) []float32 {
	w := pq.width(s)
	out := make([]float32, pq.K*w)
	for c := 0; c < pq.K; c++ {
		pq.centroid(s, c, out[c*w:(c+1)*w])
	}
	return out
}

// Encode quantizes x to its M centroid indices, appended to dst.
func (pq *PQ) Encode(x []float32, dst []uint16) []uint16 {
	if len(x) != pq.Dim {
		panic(fmt.Sprintf("quantization: vector dim %d != %d", len(x), pq.Dim))
	}
	for s := 0; s < pq.M; s++ {
		w := pq.width(s)
		xs := x[pq.offsets[s] : pq.offsets[s]+w]
		best, _ := vecmath.NearestCentroid(xs, pq.codebooks[s], pq.K)
		dst = append(dst, uint16(best))
	}
	return dst
}

// Decode reconstructs the vector represented by code into dst (length
// Dim).
func (pq *PQ) Decode(code []uint16, dst []float32) {
	if len(code) != pq.M || len(dst) != pq.Dim {
		panic("quantization: Decode shape mismatch")
	}
	for s := 0; s < pq.M; s++ {
		pq.centroid(s, int(code[s]), dst[pq.offsets[s]:pq.offsets[s+1]])
	}
}

// ADCTable precomputes, for a query, the squared distance from each
// query subvector to every centroid of every subspace: table[s][c]. One
// table turns each ADC distance evaluation into M float additions.
func (pq *PQ) ADCTable(q []float32) [][]float64 {
	if len(q) != pq.Dim {
		panic(fmt.Sprintf("quantization: query dim %d != %d", len(q), pq.Dim))
	}
	table := make([][]float64, pq.M)
	for s := 0; s < pq.M; s++ {
		w := pq.width(s)
		qs := q[pq.offsets[s] : pq.offsets[s]+w]
		row := make([]float64, pq.K)
		cent := make([]float32, w)
		for c := 0; c < pq.K; c++ {
			pq.centroid(s, c, cent)
			row[c] = vecmath.SquaredL2(qs, cent)
		}
		table[s] = row
	}
	return table
}

// ADCDist returns the asymmetric squared distance between the query
// represented by table and the encoded item.
func (pq *PQ) ADCDist(table [][]float64, code []uint16) float64 {
	var d float64
	for s := 0; s < pq.M; s++ {
		d += table[s][code[s]]
	}
	return d
}

// ReconstructionError returns the mean squared reconstruction error of
// the quantizer over the block — the PQ training objective.
func (pq *PQ) ReconstructionError(data []float32, n int) float64 {
	buf := make([]uint16, 0, pq.M)
	rec := make([]float32, pq.Dim)
	var total float64
	for i := 0; i < n; i++ {
		row := data[i*pq.Dim : (i+1)*pq.Dim]
		buf = pq.Encode(row, buf[:0])
		pq.Decode(buf, rec)
		total += vecmath.SquaredL2(row, rec)
	}
	return total / float64(n)
}
