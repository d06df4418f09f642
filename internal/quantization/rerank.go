package quantization

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/rand"

	"gqr/internal/cluster"
	"gqr/internal/vecmath"
)

// This file promotes the package from a paper baseline (§6.5
// comparison system) to a serving subsystem: the Reranker wraps a PQ —
// optionally behind an OPQ rotation — with the representation the query
// hot path needs (one-byte codes, a flat float32 ADC table rebuilt into
// caller scratch, zero steady-state allocations) and with training
// parallelized through the vecmath/cluster helpers so it honors
// WithBuildParallelism while staying bit-identical at any worker count.

// Lloyd iteration counts for serving-quantizer training. Fixed rather
// than configurable: the recall/latency trade-off the public API
// exposes is (m, k, factor); training depth only moves build time.
const (
	rerankKMIters  = 25
	rerankOPQIters = 8
)

// MaxCentroids is the centroid-count ceiling of the serving quantizer:
// codes are one byte per subspace, so K ≤ 256.
const MaxCentroids = 256

// TrainPQP is TrainPQ with the k-means inner loop fanned out across
// procs workers. Subspaces still train sequentially against one shared
// rng (the draw order is part of the trained parameters), so the result
// is bit-identical to the serial build at any worker count. The time is
// nearly all k-means assignment, m·iters·n nearest-centroid searches of
// k centroids through vecmath.NearestCentroid; each codebook is kept
// only in its blocked layout.
func TrainPQP(data []float32, n, d, m, k, iters int, seed int64, procs int) (*PQ, error) {
	if m <= 0 || m > d {
		return nil, fmt.Errorf("quantization: M=%d out of range [1,%d]", m, d)
	}
	if k <= 0 || k > n {
		return nil, fmt.Errorf("quantization: K=%d out of range [1,%d]", k, n)
	}
	if len(data) != n*d {
		return nil, fmt.Errorf("quantization: data length %d != n*d = %d", len(data), n*d)
	}
	procs = vecmath.Procs(procs)
	pq := &PQ{M: m, K: k, Dim: d, offsets: make([]int, m+1)}
	off := 0
	rng := rand.New(rand.NewSource(seed))
	sub := make([]float32, n*(d/m+1))
	for s := 0; s < m; s++ {
		w := d / m
		if s < d%m {
			w++
		}
		pq.offsets[s] = off

		// Column extraction owns disjoint output rows per worker, so the
		// parallel copy is trivially deterministic.
		sub := sub[:n*w]
		base := off
		vecmath.ParallelRanges(n, procs, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				copy(sub[i*w:(i+1)*w], data[i*d+base:i*d+base+w])
			}
		})
		cb, err := cluster.KMeansP(sub, n, w, k, iters, rng, procs)
		if err != nil {
			return nil, fmt.Errorf("quantization: subspace %d: %w", s, err)
		}
		pq.codebooks = append(pq.codebooks, vecmath.BlockCentroids(nil, cb, k, w))
		off += w
	}
	pq.offsets[m] = off
	return pq, nil
}

// TrainOPQP is TrainOPQ with every dense kernel (rotation mat-mul,
// reconstruction, Procrustes SVD panels, inner k-means) parallelized.
// Outer alternations and rng draws stay sequential, so the result is
// bit-identical at any worker count.
func TrainOPQP(data []float32, n, d, m, k, outerIters, kmIters int, seed int64, procs int) (*OPQ, error) {
	if outerIters <= 0 {
		outerIters = 10
	}
	if len(data) != n*d {
		return nil, fmt.Errorf("quantization: data length %d != n*d = %d", len(data), n*d)
	}
	procs = vecmath.Procs(procs)
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

	x := vecmath.NewMat(n, d)
	vecmath.ParallelRanges(n, procs, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := data[i*d : (i+1)*d]
			dst := x.Row(i)
			for j, v := range row {
				dst[j] = float64(v) - mean[j]
			}
		}
	})

	rng := rand.New(rand.NewSource(seed))
	r := vecmath.RandomRotation(rng, d)

	rotated32 := make([]float32, n*d)
	var pq *PQ
	y := vecmath.NewMat(n, d)
	for it := 0; it < outerIters; it++ {
		xr := vecmath.MulP(x, r, procs)
		vecmath.ParallelRanges(n*d, procs, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				rotated32[i] = float32(xr.Data[i])
			}
		})
		var err error
		pq, err = TrainPQP(rotated32, n, d, m, k, kmIters, seed+int64(it)+1, procs)
		if err != nil {
			return nil, err
		}
		if it == outerIters-1 {
			break // final codebooks trained on the final rotation
		}
		// Reconstruction rows are independent; each worker carries its own
		// encode/decode scratch.
		vecmath.ParallelRanges(n, procs, func(lo, hi int) {
			code := make([]uint16, 0, m)
			rec := make([]float32, d)
			for i := lo; i < hi; i++ {
				code = pq.Encode(rotated32[i*d:(i+1)*d], code[:0])
				pq.Decode(code, rec)
				dst := y.Row(i)
				for j, v := range rec {
					dst[j] = float64(v)
				}
			}
		})
		r = vecmath.ProcrustesP(x, y, procs)
	}
	return &OPQ{R: r, PQ: pq, mean: mean}, nil
}

// Reranker is the serving-path product quantizer behind the index's
// optional re-ranking stage: one byte per subspace code, an optional
// OPQ rotation, and flat float32 ADC tables built into caller-owned
// scratch so the query hot path stays allocation-free.
type Reranker struct {
	pq   *PQ
	rt   *vecmath.Mat // the d×d rotation R transposed, so rotate reads rows; nil for plain PQ
	mean []float64    // removed before rotation; nil for plain PQ
}

// TrainReranker learns a serving quantizer over the n×d block: plain PQ
// codebooks, or OPQ (learned rotation + codebooks) when opq is set.
// K is capped at 256 so codes fit one byte per subspace.
func TrainReranker(data []float32, n, d, m, k int, opq bool, seed int64, procs int) (*Reranker, error) {
	if k > MaxCentroids {
		return nil, fmt.Errorf("quantization: K=%d exceeds the one-byte code limit %d", k, MaxCentroids)
	}
	if !opq {
		pq, err := TrainPQP(data, n, d, m, k, rerankKMIters, seed, procs)
		if err != nil {
			return nil, err
		}
		return &Reranker{pq: pq}, nil
	}
	o, err := TrainOPQP(data, n, d, m, k, rerankOPQIters, rerankKMIters, seed, procs)
	if err != nil {
		return nil, err
	}
	return &Reranker{pq: o.PQ, rt: o.R.T(), mean: o.mean}, nil
}

// M returns the code length in bytes (one byte per subspace).
func (rr *Reranker) M() int { return rr.pq.M }

// K returns the centroids per subspace.
func (rr *Reranker) K() int { return rr.pq.K }

// Dim returns the vector dimensionality the quantizer was trained on.
func (rr *Reranker) Dim() int { return rr.pq.Dim }

// Rotated reports whether an OPQ rotation is applied before coding.
func (rr *Reranker) Rotated() bool { return rr.rt != nil }

// TableLen returns the flat ADC table length (M·K float32 entries).
func (rr *Reranker) TableLen() int { return rr.pq.M * rr.pq.K }

// rotate writes the quantizer-space image of x into rot: (x−mean)ᵀ·R,
// or a plain copy when no rotation was trained. rot has length Dim.
// Output j sums over i ascending, each product rounded on its own (the
// float64(…) forbids fusing it into the addition); column j of R is row
// j of rt, so the sum reads memory in order.
func (rr *Reranker) rotate(x []float32, rot []float32) {
	if rr.rt == nil {
		copy(rot, x)
		return
	}
	x = x[:len(rr.mean)]
	for j := range rr.mean {
		col := rr.rt.Row(j)[:len(x)]
		var s float64
		for i, m := range rr.mean {
			s += float64((float64(x[i]) - m) * col[i])
		}
		rot[j] = float32(s)
	}
}

// EncodeTo quantizes x into dst (length M, one byte per subspace). rot
// is rotation scratch of length Dim; it may be nil for a plain-PQ
// quantizer.
func (rr *Reranker) EncodeTo(x []float32, dst []uint8, rot []float32) {
	pq := rr.pq
	if len(x) != pq.Dim || len(dst) != pq.M {
		panic("quantization: EncodeTo shape mismatch")
	}
	if rr.rt != nil {
		rr.rotate(x, rot)
		x = rot
	}
	for s := 0; s < pq.M; s++ {
		w := pq.width(s)
		xs := x[pq.offsets[s] : pq.offsets[s]+w]
		best, _ := vecmath.NearestCentroid(xs, pq.codebooks[s], pq.K)
		dst[s] = uint8(best)
	}
}

// EncodeAll codes the n×Dim block into a fresh n·M slab, fanned out
// across procs workers (disjoint output rows, so bit-identical at any
// worker count).
func (rr *Reranker) EncodeAll(data []float32, n, procs int) []uint8 {
	d, m := rr.pq.Dim, rr.pq.M
	codes := make([]uint8, n*m)
	vecmath.ParallelRanges(n, vecmath.Procs(procs), func(lo, hi int) {
		var rot []float32
		if rr.rt != nil {
			rot = make([]float32, d)
		}
		for i := lo; i < hi; i++ {
			rr.EncodeTo(data[i*d:(i+1)*d], codes[i*m:(i+1)*m], rot)
		}
	})
	return codes
}

// ADCTable builds the query's asymmetric-distance lookup table into tab
// (grown to M·K entries, reusing capacity) and returns it: tab[s·K+c]
// is the squared distance from the query's subvector s to centroid c.
// rot is rotation scratch of length Dim (nil for plain PQ). The table
// is M·K float32s — ~8KB at the m=8, k=256 defaults — so the per-
// candidate distance becomes M cache-resident lookups.
func (rr *Reranker) ADCTable(q []float32, tab []float32, rot []float32) []float32 {
	pq := rr.pq
	if len(q) != pq.Dim {
		panic(fmt.Sprintf("quantization: query dim %d != %d", len(q), pq.Dim))
	}
	if rr.rt != nil {
		rr.rotate(q, rot)
		q = rot
	}
	need := pq.M * pq.K
	if cap(tab) < need {
		tab = make([]float32, need)
	}
	tab = tab[:need]
	for s := 0; s < pq.M; s++ {
		rr.fillRow(s, q, tab[s*pq.K:(s+1)*pq.K])
	}
	return tab
}

// ADCRows builds the query's lookup table as stride-256 rows, one
// [256]float32 per subspace (entries past K stay untouched): the
// serving layout. A byte code indexes a row directly — rows[s][c] —
// and because the row is a fixed-size array the compiler drops the
// bounds check on the code byte, which is the difference between ~20ns
// and ~10ns per candidate in the scoring loop. Values are identical to
// ADCTable's. rot is rotation scratch of length Dim (nil for plain PQ).
func (rr *Reranker) ADCRows(q []float32, rows [][256]float32, rot []float32) [][256]float32 {
	pq := rr.pq
	if len(q) != pq.Dim {
		panic(fmt.Sprintf("quantization: query dim %d != %d", len(q), pq.Dim))
	}
	if rr.rt != nil {
		rr.rotate(q, rot)
		q = rot
	}
	if cap(rows) < pq.M {
		rows = make([][256]float32, pq.M)
	}
	rows = rows[:pq.M]
	for s := range rows {
		rr.fillRow(s, q, rows[s][:pq.K])
	}
	return rows
}

// fillRow computes subspace s's K squared distances from the (already
// rotated) query into row (length K) with vecmath.ADCRow over the
// blocked codebook: float32 throughout, pairwise at width 4 and
// sequential at every other width, nothing written past row[K−1].
func (rr *Reranker) fillRow(s int, q []float32, row []float32) {
	pq := rr.pq
	vecmath.ADCRow(row, q[pq.offsets[s]:pq.offsets[s+1]], pq.codebooks[s])
}

// ADCDist returns the asymmetric squared distance between the query
// represented by tab and one item's byte code.
func (rr *Reranker) ADCDist(tab []float32, code []uint8) float64 {
	k := rr.pq.K
	var d float64
	for s, c := range code {
		d += float64(tab[s*k+int(c)])
	}
	return d
}

// Decode reconstructs the quantizer-space vector of a byte code into
// dst (length Dim) — test/oracle support for the ADC identity
// ADCDist(table(q), code) == ‖rotate(q) − Decode(code)‖².
func (rr *Reranker) Decode(code []uint8, dst []float32) {
	pq := rr.pq
	if len(code) != pq.M || len(dst) != pq.Dim {
		panic("quantization: Decode shape mismatch")
	}
	for s := 0; s < pq.M; s++ {
		pq.centroid(s, int(code[s]), dst[pq.offsets[s]:pq.offsets[s+1]])
	}
}

// Rotate exposes the quantizer-space mapping for oracles: dst gets
// (x−mean)ᵀ·R, or a copy of x for plain PQ. Both slices have length Dim.
func (rr *Reranker) Rotate(x, dst []float32) { rr.rotate(x, dst) }

// Serialization: a one-byte version tag, the shape header, the optional
// rotation (mean + matrix) and the per-subspace codebooks. Subspace
// widths are a pure function of (Dim, M), so offsets are not stored.
const tagReranker byte = 1

// maxRerankDim bounds the dimensionality accepted from untrusted
// streams so a hostile header cannot demand a multi-GB allocation.
const maxRerankDim = 1 << 16

// Marshal encodes the quantizer for the index's persistence layer.
func (rr *Reranker) Marshal() []byte {
	var buf bytes.Buffer
	buf.WriteByte(tagReranker)
	pq := rr.pq
	writeRU32(&buf, uint32(pq.M))
	writeRU32(&buf, uint32(pq.K))
	writeRU32(&buf, uint32(pq.Dim))
	if rr.rt != nil {
		buf.WriteByte(1)
		for _, v := range rr.mean {
			writeRU64(&buf, math.Float64bits(v))
		}
		for _, v := range rr.rt.T().Data { // R row-major, as trained
			writeRU64(&buf, math.Float64bits(v))
		}
	} else {
		buf.WriteByte(0)
	}
	for s := range pq.codebooks {
		for _, v := range pq.rowMajor(s) {
			writeRU32(&buf, math.Float32bits(v))
		}
	}
	return buf.Bytes()
}

// UnmarshalReranker decodes a quantizer previously encoded with
// Marshal, validating every length before allocating.
func UnmarshalReranker(data []byte) (*Reranker, error) {
	r := bytes.NewReader(data)
	tag, err := r.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("quantization: unmarshal: %w", err)
	}
	if tag != tagReranker {
		return nil, fmt.Errorf("quantization: unmarshal: unknown tag %d", tag)
	}
	var m32, k32, d32 uint32
	for _, dst := range []*uint32{&m32, &k32, &d32} {
		if err := binary.Read(r, binary.LittleEndian, dst); err != nil {
			return nil, fmt.Errorf("quantization: unmarshal header: %w", err)
		}
	}
	m, k, d := int(m32), int(k32), int(d32)
	if d < 1 || d > maxRerankDim || m < 1 || m > d || k < 1 || k > MaxCentroids {
		return nil, fmt.Errorf("quantization: unmarshal: invalid shape m=%d k=%d d=%d", m, k, d)
	}
	rotFlag, err := r.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("quantization: unmarshal: %w", err)
	}
	if rotFlag > 1 {
		return nil, fmt.Errorf("quantization: unmarshal: invalid rotation flag %d", rotFlag)
	}
	out := &Reranker{pq: &PQ{M: m, K: k, Dim: d, offsets: make([]int, m+1)}}
	if rotFlag == 1 {
		out.mean = make([]float64, d)
		if err := readRF64s(r, out.mean); err != nil {
			return nil, err
		}
		rot := vecmath.NewMat(d, d)
		if err := readRF64s(r, rot.Data); err != nil {
			return nil, err
		}
		out.rt = rot.T()
	}
	off := 0
	for s := 0; s < m; s++ {
		w := d / m
		if s < d%m {
			w++
		}
		out.pq.offsets[s] = off
		cb := make([]float32, k*w)
		for i := range cb {
			var bits uint32
			if err := binary.Read(r, binary.LittleEndian, &bits); err != nil {
				return nil, fmt.Errorf("quantization: unmarshal codebook %d: %w", s, err)
			}
			cb[i] = math.Float32frombits(bits)
		}
		out.pq.codebooks = append(out.pq.codebooks, vecmath.BlockCentroids(nil, cb, k, w))
		off += w
	}
	out.pq.offsets[m] = off
	if _, err := r.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("quantization: unmarshal: trailing data")
	}
	return out, nil
}

func writeRU32(buf *bytes.Buffer, v uint32) { binary.Write(buf, binary.LittleEndian, v) }
func writeRU64(buf *bytes.Buffer, v uint64) { binary.Write(buf, binary.LittleEndian, v) }

func readRF64s(r *bytes.Reader, dst []float64) error {
	for i := range dst {
		var bits uint64
		if err := binary.Read(r, binary.LittleEndian, &bits); err != nil {
			return fmt.Errorf("quantization: unmarshal rotation: %w", err)
		}
		dst[i] = math.Float64frombits(bits)
	}
	return nil
}
