package quantization

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// testBlock generates an n×d block with a few Gaussian clusters so the
// trained codebooks are non-degenerate.
func testBlock(n, d int, seed int64) []float32 {
	rng := rand.New(rand.NewSource(seed))
	const clusters = 8
	centers := make([]float64, clusters*d)
	for i := range centers {
		centers[i] = rng.NormFloat64() * 4
	}
	data := make([]float32, n*d)
	for i := 0; i < n; i++ {
		c := rng.Intn(clusters)
		for j := 0; j < d; j++ {
			data[i*d+j] = float32(centers[c*d+j] + rng.NormFloat64())
		}
	}
	return data
}

// TestADCMatchesDecodedDistance is the ADC oracle: the table-lookup
// distance must equal the exact squared distance between the rotated
// query and the decoded (reconstructed) item, for plain PQ and OPQ.
func TestADCMatchesDecodedDistance(t *testing.T) {
	const n, d, m, k = 600, 16, 4, 32
	data := testBlock(n, d, 7)
	for _, opq := range []bool{false, true} {
		rr, err := TrainReranker(data, n, d, m, k, opq, 11, 1)
		if err != nil {
			t.Fatalf("opq=%v: %v", opq, err)
		}
		codes := rr.EncodeAll(data, n, 1)
		rng := rand.New(rand.NewSource(13))
		q := make([]float32, d)
		rot := make([]float32, d)
		dec := make([]float32, d)
		rq := make([]float32, d)
		var tab []float32
		for trial := 0; trial < 20; trial++ {
			for j := range q {
				q[j] = float32(rng.NormFloat64() * 3)
			}
			tab = rr.ADCTable(q, tab, rot)
			// The serving-layout rows must agree with the flat table
			// entry-for-entry.
			rows := rr.ADCRows(q, nil, rot)
			for s := 0; s < m; s++ {
				for c := 0; c < k; c++ {
					if rows[s][c] != tab[s*k+c] {
						t.Fatalf("opq=%v: ADCRows[%d][%d]=%g != ADCTable %g",
							opq, s, c, rows[s][c], tab[s*k+c])
					}
				}
			}
			rr.Rotate(q, rq)
			for i := 0; i < n; i += 37 {
				code := codes[i*m : (i+1)*m]
				rr.Decode(code, dec)
				var exact float64
				for j := 0; j < d; j++ {
					dd := float64(rq[j]) - float64(dec[j])
					exact += dd * dd
				}
				got := rr.ADCDist(tab, code)
				// The table pre-sums per-subspace float32 terms; allow
				// accumulation-order rounding.
				if diff := math.Abs(got - exact); diff > 1e-3*(1+exact) {
					t.Fatalf("opq=%v item %d: ADC %g vs decoded %g (diff %g)",
						opq, i, got, exact, diff)
				}
			}
		}
	}
}

// TestRotateMatchesColumnSums holds the OPQ query rotation, which reads
// R transposed row by row, to the plain definition walking R column by
// column: output j = Σ_i (x[i] − mean[i])·R[i][j], i ascending, each
// product rounded on its own; bit for bit.
func TestRotateMatchesColumnSums(t *testing.T) {
	const n, d, m, k = 400, 10, 5, 16
	data := testBlock(n, d, 31)
	rr, err := TrainReranker(data, n, d, m, k, true, 37, 1)
	if err != nil {
		t.Fatal(err)
	}
	r := rr.rt.T()
	got := make([]float32, d)
	for i := 0; i < n; i += 7 {
		x := data[i*d : (i+1)*d]
		rr.Rotate(x, got)
		for j := 0; j < d; j++ {
			var s float64
			for l := 0; l < d; l++ {
				s += float64((float64(x[l]) - rr.mean[l]) * r.At(l, j))
			}
			if math.Float32bits(got[j]) != math.Float32bits(float32(s)) {
				t.Fatalf("row %d output %d: %v, column sum %v", i, j, got[j], float32(s))
			}
		}
	}
}

// TestTrainingIsParallelInvariant pins the determinism contract:
// training and encoding fan out over workers but must be bit-identical
// to the serial run at any worker count.
func TestTrainingIsParallelInvariant(t *testing.T) {
	const n, d, m, k = 500, 12, 3, 16
	data := testBlock(n, d, 17)
	for _, opq := range []bool{false, true} {
		ref, err := TrainReranker(data, n, d, m, k, opq, 19, 1)
		if err != nil {
			t.Fatalf("opq=%v serial: %v", opq, err)
		}
		refBytes := ref.Marshal()
		refCodes := ref.EncodeAll(data, n, 1)
		for _, procs := range []int{2, 3, 8} {
			got, err := TrainReranker(data, n, d, m, k, opq, 19, procs)
			if err != nil {
				t.Fatalf("opq=%v procs=%d: %v", opq, procs, err)
			}
			if !bytes.Equal(got.Marshal(), refBytes) {
				t.Fatalf("opq=%v procs=%d: trained quantizer differs from serial", opq, procs)
			}
			if !bytes.Equal(got.EncodeAll(data, n, procs), refCodes) {
				t.Fatalf("opq=%v procs=%d: codes differ from serial", opq, procs)
			}
		}
	}
}

// TestRerankerRoundTrip checks Marshal/Unmarshal is lossless: the
// reloaded quantizer must produce identical bytes, codes and tables.
func TestRerankerRoundTrip(t *testing.T) {
	const n, d, m, k = 400, 10, 5, 16
	data := testBlock(n, d, 23)
	for _, opq := range []bool{false, true} {
		rr, err := TrainReranker(data, n, d, m, k, opq, 29, 1)
		if err != nil {
			t.Fatalf("opq=%v: %v", opq, err)
		}
		blob := rr.Marshal()
		got, err := UnmarshalReranker(blob)
		if err != nil {
			t.Fatalf("opq=%v unmarshal: %v", opq, err)
		}
		if got.M() != m || got.K() != k || got.Dim() != d || got.Rotated() != opq {
			t.Fatalf("opq=%v: shape changed: M=%d K=%d Dim=%d rot=%v",
				opq, got.M(), got.K(), got.Dim(), got.Rotated())
		}
		if !bytes.Equal(got.Marshal(), blob) {
			t.Fatalf("opq=%v: re-marshal differs", opq)
		}
		if !bytes.Equal(got.EncodeAll(data, n, 1), rr.EncodeAll(data, n, 1)) {
			t.Fatalf("opq=%v: reloaded quantizer codes differ", opq)
		}
		q := data[:d]
		rot := make([]float32, d)
		a := rr.ADCTable(q, nil, rot)
		b := got.ADCTable(q, nil, rot)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("opq=%v: ADC table entry %d differs: %g vs %g", opq, i, a[i], b[i])
			}
		}
	}
}

// TestUnmarshalRejectsCorruption feeds truncated and mutated blobs:
// every corruption must error, never panic or succeed.
func TestUnmarshalRejectsCorruption(t *testing.T) {
	const n, d, m, k = 300, 8, 4, 16
	data := testBlock(n, d, 31)
	rr, err := TrainReranker(data, n, d, m, k, true, 37, 1)
	if err != nil {
		t.Fatal(err)
	}
	blob := rr.Marshal()

	if _, err := UnmarshalReranker(nil); err == nil {
		t.Fatal("empty blob accepted")
	}
	for _, cut := range []int{1, 4, 12, len(blob) / 2, len(blob) - 1} {
		if _, err := UnmarshalReranker(blob[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	// Trailing garbage must be rejected (the blob is length-framed by
	// its container).
	if _, err := UnmarshalReranker(append(append([]byte{}, blob...), 0xAB)); err == nil {
		t.Fatal("trailing garbage accepted")
	}
	// Wrong version tag.
	bad := append([]byte{}, blob...)
	bad[0] ^= 0xFF
	if _, err := UnmarshalReranker(bad); err == nil {
		t.Fatal("bad version tag accepted")
	}
	// Implausible shape: M larger than Dim.
	bad = append([]byte{}, blob...)
	bad[1], bad[2], bad[3], bad[4] = 0xFF, 0xFF, 0xFF, 0x7F
	if _, err := UnmarshalReranker(bad); err == nil {
		t.Fatal("implausible M accepted")
	}
}

// TestTrainRerankerRejectsWideK pins the one-byte-code limit.
func TestTrainRerankerRejectsWideK(t *testing.T) {
	data := testBlock(300, 8, 41)
	if _, err := TrainReranker(data, 300, 8, 4, MaxCentroids+1, false, 1, 1); err == nil {
		t.Fatal("K above the one-byte limit accepted")
	}
}
