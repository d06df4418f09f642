package quantization

import (
	"fmt"
	"math/rand"

	"gqr/internal/vecmath"
)

// OPQ is optimized product quantization (Ge et al., the paper's §6.5
// comparator): a learned orthogonal rotation R applied before product
// quantization, trained non-parametrically by alternating between
// (a) retraining/refreshing the PQ assignment on the rotated data and
// (b) solving the orthogonal Procrustes problem
// R = argmin ‖X·R − Y‖_F, where Y is the PQ reconstruction.
type OPQ struct {
	R  *vecmath.Mat // d×d rotation
	PQ *PQ
	// mean removed before rotation (training centers the data).
	mean []float64
}

// TrainOPQ learns an OPQ quantizer. outerIters alternations are run; the
// inner PQ uses kmIters Lloyd iterations per refresh.
func TrainOPQ(data []float32, n, d, m, k, outerIters, kmIters int, seed int64) (*OPQ, error) {
	if outerIters <= 0 {
		outerIters = 10
	}
	if len(data) != n*d {
		return nil, fmt.Errorf("quantization: data length %d != n*d = %d", len(data), n*d)
	}
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

	// Centered data as float64 matrix for the Procrustes updates.
	x := vecmath.NewMat(n, d)
	for i := 0; i < n; i++ {
		row := data[i*d : (i+1)*d]
		dst := x.Row(i)
		for j, v := range row {
			dst[j] = float64(v) - mean[j]
		}
	}

	rng := rand.New(rand.NewSource(seed))
	r := vecmath.RandomRotation(rng, d)

	rotated32 := make([]float32, n*d)
	var pq *PQ
	code := make([]uint16, 0, m)
	rec := make([]float32, d)
	y := vecmath.NewMat(n, d)
	for it := 0; it < outerIters; it++ {
		// Rotate: XR.
		xr := vecmath.Mul(x, r)
		for i, v := range xr.Data {
			rotated32[i] = float32(v)
		}
		// (Re)train PQ on the rotated data.
		var err error
		pq, err = TrainPQ(rotated32, n, d, m, k, kmIters, seed+int64(it)+1)
		if err != nil {
			return nil, err
		}
		if it == outerIters-1 {
			break // final codebooks trained on the final rotation
		}
		// Reconstruction Y of the rotated data.
		for i := 0; i < n; i++ {
			code = pq.Encode(rotated32[i*d:(i+1)*d], code[:0])
			pq.Decode(code, rec)
			dst := y.Row(i)
			for j, v := range rec {
				dst[j] = float64(v)
			}
		}
		// R = argmin ‖X·R − Y‖.
		r = vecmath.Procrustes(x, y)
	}
	return &OPQ{R: r, PQ: pq, mean: mean}, nil
}

// Rotate maps x into the rotated space: (x−mean)ᵀ·R, written to dst
// (length Dim).
func (o *OPQ) Rotate(x []float32, dst []float32) {
	d := o.PQ.Dim
	if len(x) != d || len(dst) != d {
		panic("quantization: Rotate shape mismatch")
	}
	for j := 0; j < d; j++ {
		var s float64
		for i := 0; i < d; i++ {
			s += float64((float64(x[i]) - o.mean[i]) * o.R.At(i, j))
		}
		dst[j] = float32(s)
	}
}

// Encode rotates and PQ-encodes x.
func (o *OPQ) Encode(x []float32, dst []uint16) []uint16 {
	rot := make([]float32, o.PQ.Dim)
	o.Rotate(x, rot)
	return o.PQ.Encode(rot, dst)
}

// ReconstructionError returns the mean squared error of rotating and
// quantizing each row (rotation is orthogonal, so errors are comparable
// with plain PQ's in the original space).
func (o *OPQ) ReconstructionError(data []float32, n int) float64 {
	d := o.PQ.Dim
	rot := make([]float32, d)
	code := make([]uint16, 0, o.PQ.M)
	rec := make([]float32, d)
	var total float64
	for i := 0; i < n; i++ {
		o.Rotate(data[i*d:(i+1)*d], rot)
		code = o.PQ.Encode(rot, code[:0])
		o.PQ.Decode(code, rec)
		total += vecmath.SquaredL2(rot, rec)
	}
	return total / float64(n)
}
