// Package hash implements the learning stage of learning to hash (L2H):
// training algorithms that map d-dimensional vectors to m-bit binary
// codes. It provides the learners the paper evaluates — LSH (the
// data-oblivious baseline), PCAH, ITQ, SH (spectral hashing), KMH
// (K-means hashing) and SSH (semi-supervised hashing) — behind one
// Hasher interface that exposes exactly
// what the querying methods in package query need: the binary code of a
// vector and the per-bit flipping costs that define quantization
// distance.
package hash

import (
	"fmt"

	"gqr/internal/vecmath"
)

// MaxBits is the longest supported code length; codes are packed into a
// uint64. The paper's experiments use 12-28 bits (code length ≈
// log2(N/10)), and its Figure 4 argument shows long codes hurt
// querying, so 64 is not a practical limitation.
const MaxBits = 64

// Hasher maps vectors to m-bit binary codes and exposes the per-bit
// flipping costs of a query, which are the |p_i(q)| terms of the paper's
// quantization distance (Definition 1).
type Hasher interface {
	// Name identifies the learning algorithm ("itq", "pcah", ...).
	Name() string
	// Bits returns the code length m.
	Bits() int
	// Code returns the packed binary code of x; bit i of the result is
	// c_i(x).
	Code(x []float32) uint64
	// QueryProjection returns the code of x and fills costs (length
	// Bits()) with the cost of flipping each bit: costs[i] = |p_i(x)|
	// for projection-based hashers, and the appendix's
	// dist(q,c')−dist(q,c) for K-means hashing. The quantization
	// distance from x to a bucket b is Σ_i (c_i(x)⊕b_i)·costs[i].
	QueryProjection(x []float32, costs []float64) uint64
}

// Learner trains a Hasher on a dataset.
type Learner interface {
	// Name identifies the algorithm.
	Name() string
	// Train learns an m-bit hasher from the n×d row-major data block.
	Train(data []float32, n, d, bits int, seed int64) (Hasher, error)
}

// validateTrain checks the common preconditions of all learners.
func validateTrain(data []float32, n, d, bits int) error {
	if n <= 1 || d <= 0 {
		return fmt.Errorf("hash: invalid data shape n=%d d=%d", n, d)
	}
	if len(data) != n*d {
		return fmt.Errorf("hash: data length %d != n*d = %d", len(data), n*d)
	}
	if bits <= 0 || bits > MaxBits {
		return fmt.Errorf("hash: bits %d out of range [1,%d]", bits, MaxBits)
	}
	return nil
}

// projHasher is the shared implementation of every projection-based
// hasher: code bit i is 1 iff h_iᵀ(x − mean) ≥ 0, and the flipping cost
// of bit i is |h_iᵀ(x − mean)|. H is the m×d hashing matrix of
// Theorem 1. Hashers hold no mutable state after training, so they are
// safe for concurrent use.
type projHasher struct {
	name string
	h    *vecmath.Mat // m×d
	mean []float64    // length d; subtracted before projection
}

func newProjHasher(name string, h *vecmath.Mat, mean []float64) *projHasher {
	return &projHasher{name: name, h: h, mean: mean}
}

func (p *projHasher) Name() string { return p.name }
func (p *projHasher) Bits() int    { return p.h.Rows }

// project computes p(x) = H·(x − mean) into dst.
func (p *projHasher) project(x []float32, dst []float64) {
	if len(x) != p.h.Cols {
		panic(fmt.Sprintf("hash: vector dim %d != trained dim %d", len(x), p.h.Cols))
	}
	for i := 0; i < p.h.Rows; i++ {
		row := p.h.Row(i)
		var s float64
		for j, v := range row {
			s += v * (float64(x[j]) - p.mean[j])
		}
		dst[i] = s
	}
}

// Project exposes the raw projected vector p(x) (used by tests and by
// the Theorem 2 bound checks).
func (p *projHasher) Project(x []float32, dst []float64) { p.project(x, dst) }

// Matrix returns the m×d hashing matrix H (Theorem 1's H).
func (p *projHasher) Matrix() *vecmath.Mat { return p.h }

func (p *projHasher) Code(x []float32) uint64 {
	if len(x) != p.h.Cols {
		panic(fmt.Sprintf("hash: vector dim %d != trained dim %d", len(x), p.h.Cols))
	}
	var code uint64
	for i := 0; i < p.h.Rows; i++ {
		row := p.h.Row(i)
		var s float64
		for j, v := range row {
			s += v * (float64(x[j]) - p.mean[j])
		}
		if s >= 0 {
			code |= 1 << uint(i)
		}
	}
	return code
}

func (p *projHasher) QueryProjection(x []float32, costs []float64) uint64 {
	if len(costs) != p.h.Rows {
		panic(fmt.Sprintf("hash: costs length %d != bits %d", len(costs), p.h.Rows))
	}
	p.project(x, costs)
	var code uint64
	for i, v := range costs {
		if v >= 0 {
			code |= 1 << uint(i)
		} else {
			costs[i] = -v
		}
	}
	return code
}

// SpectralNormBound returns σ_max(H), the constant M of Theorem 1, for
// any projection-based hasher.
func SpectralNormBound(h *projHasher) float64 {
	m := h.h
	if m.Rows >= m.Cols {
		return vecmath.SpectralNorm(m)
	}
	return vecmath.SpectralNorm(m.T())
}

// Projector is implemented by hashers whose codes come from thresholding
// a real-valued projection; it gives access to the projection for bound
// checks and diagnostics.
type Projector interface {
	Project(x []float32, dst []float64)
}

// CodeString formats a packed code as a bit string of the given length
// (bit 0 first), for diagnostics.
func CodeString(code uint64, bits int) string {
	b := make([]byte, bits)
	for i := 0; i < bits; i++ {
		if code&(1<<uint(i)) != 0 {
			b[i] = '1'
		} else {
			b[i] = '0'
		}
	}
	return string(b)
}

// meanOf computes the column means of the n×d block.
func meanOf(data []float32, n, d int) []float64 {
	mean := make([]float64, d)
	for i := 0; i < n; i++ {
		row := data[i*d : (i+1)*d]
		for j, v := range row {
			mean[j] += float64(v)
		}
	}
	for j := range mean {
		mean[j] /= float64(n)
	}
	return mean
}

// signOf returns ±1 matching v ≥ 0, the quantization rule.
func signOf(v float64) float64 {
	if v >= 0 {
		return 1
	}
	return -1
}
