package quantization

import (
	"math"
	"sort"
	"testing"

	"gqr/internal/dataset"
	"gqr/internal/vecmath"
)

func qdata(t testing.TB, n, d int) *dataset.Dataset {
	t.Helper()
	return dataset.Generate(dataset.GeneratorSpec{
		Name: "vq", N: n, Dim: d, Clusters: 6, LatentDim: d / 4, Seed: 91,
	})
}

func TestPQRoundTripShapes(t *testing.T) {
	ds := qdata(t, 400, 16)
	pq, err := TrainPQ(ds.Vectors, ds.N(), ds.Dim, 4, 8, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	code := pq.Encode(ds.Vector(0), nil)
	if len(code) != 4 {
		t.Fatalf("code length %d", len(code))
	}
	for _, c := range code {
		if int(c) >= 8 {
			t.Fatalf("code %d out of range", c)
		}
	}
	rec := make([]float32, 16)
	pq.Decode(code, rec)
}

func TestPQEncodePicksNearestCentroids(t *testing.T) {
	ds := qdata(t, 300, 12)
	pq, err := TrainPQ(ds.Vectors, ds.N(), ds.Dim, 3, 8, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		x := ds.Vector(i)
		code := pq.Encode(x, nil)
		for s := 0; s < pq.M; s++ {
			w := pq.width(s)
			xs := x[pq.offsets[s] : pq.offsets[s]+w]
			best, _ := vecmath.ArgNearest(xs, pq.rowMajor(s), pq.K, w)
			if int(code[s]) != best {
				t.Fatalf("item %d subspace %d: code %d but nearest %d", i, s, code[s], best)
			}
		}
	}
}

func TestADCMatchesReconstruction(t *testing.T) {
	// ADC distance must exactly equal the distance between the query
	// and the decoded reconstruction.
	ds := qdata(t, 300, 12)
	pq, err := TrainPQ(ds.Vectors, ds.N(), ds.Dim, 4, 8, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	rec := make([]float32, 12)
	for qi := 0; qi < 10; qi++ {
		q := ds.Vector(qi)
		table := pq.ADCTable(q)
		for i := 20; i < 40; i++ {
			code := pq.Encode(ds.Vector(i), nil)
			adc := pq.ADCDist(table, code)
			pq.Decode(code, rec)
			want := vecmath.SquaredL2(q, rec)
			if math.Abs(adc-want) > 1e-6*(want+1) {
				t.Fatalf("ADC %g != reconstruction distance %g", adc, want)
			}
		}
	}
}

func TestMoreCentroidsReduceError(t *testing.T) {
	ds := qdata(t, 600, 16)
	small, err := TrainPQ(ds.Vectors, ds.N(), ds.Dim, 4, 4, 12, 4)
	if err != nil {
		t.Fatal(err)
	}
	big, err := TrainPQ(ds.Vectors, ds.N(), ds.Dim, 4, 32, 12, 4)
	if err != nil {
		t.Fatal(err)
	}
	es, eb := small.ReconstructionError(ds.Vectors, ds.N()), big.ReconstructionError(ds.Vectors, ds.N())
	if eb >= es {
		t.Fatalf("32 centroids (err %g) not better than 4 (err %g)", eb, es)
	}
}

func TestPQValidation(t *testing.T) {
	ds := qdata(t, 100, 8)
	if _, err := TrainPQ(ds.Vectors, ds.N(), ds.Dim, 0, 4, 5, 1); err == nil {
		t.Fatal("M=0 must be rejected")
	}
	if _, err := TrainPQ(ds.Vectors, ds.N(), ds.Dim, 9, 4, 5, 1); err == nil {
		t.Fatal("M>d must be rejected")
	}
	if _, err := TrainPQ(ds.Vectors, ds.N(), ds.Dim, 2, 0, 5, 1); err == nil {
		t.Fatal("K=0 must be rejected")
	}
	if _, err := TrainPQ(ds.Vectors[:8], ds.N(), ds.Dim, 2, 4, 5, 1); err == nil {
		t.Fatal("short data must be rejected")
	}
}

func TestOPQRotationIsOrthogonal(t *testing.T) {
	ds := qdata(t, 300, 10)
	opq, err := TrainOPQ(ds.Vectors, ds.N(), ds.Dim, 2, 8, 4, 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	id := vecmath.Mul(opq.R.T(), opq.R)
	for i := 0; i < 10; i++ {
		for j := 0; j < 10; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if math.Abs(id.At(i, j)-want) > 1e-8 {
				t.Fatal("OPQ rotation not orthogonal")
			}
		}
	}
}

func TestOPQRotatePreservesNorms(t *testing.T) {
	ds := qdata(t, 200, 8)
	opq, err := TrainOPQ(ds.Vectors, ds.N(), ds.Dim, 2, 4, 3, 6, 6)
	if err != nil {
		t.Fatal(err)
	}
	rot := make([]float32, 8)
	mean32 := make([]float32, 8)
	for j, m := range opq.mean {
		mean32[j] = float32(m)
	}
	for i := 0; i < 30; i++ {
		x := ds.Vector(i)
		opq.Rotate(x, rot)
		centered := make([]float32, 8)
		for j := range centered {
			centered[j] = x[j] - mean32[j]
		}
		if math.Abs(vecmath.Norm(rot)-vecmath.Norm(centered)) > 1e-3*(vecmath.Norm(centered)+1) {
			t.Fatalf("rotation changed the norm: %g vs %g", vecmath.Norm(rot), vecmath.Norm(centered))
		}
	}
}

func TestOPQNotWorseThanPQ(t *testing.T) {
	// OPQ's learned rotation must not increase the quantization error
	// relative to PQ on the raw (centered) data — that is the OPQ
	// objective. Compare errors in the respective quantization spaces
	// (both are isometric to the input space).
	ds := qdata(t, 800, 16)
	pq, err := TrainPQ(ds.Vectors, ds.N(), ds.Dim, 4, 8, 12, 7)
	if err != nil {
		t.Fatal(err)
	}
	opq, err := TrainOPQ(ds.Vectors, ds.N(), ds.Dim, 4, 8, 8, 12, 7)
	if err != nil {
		t.Fatal(err)
	}
	epq := pq.ReconstructionError(ds.Vectors, ds.N())
	eopq := opq.ReconstructionError(ds.Vectors, ds.N())
	if eopq > epq*1.05 {
		t.Fatalf("OPQ error %g much worse than PQ error %g", eopq, epq)
	}
}

func TestCellSequenceOrderAndCoverage(t *testing.T) {
	ds := qdata(t, 500, 12)
	imi, err := BuildIMI(ds.Vectors, ds.N(), ds.Dim, IMIConfig{M: 3, KFine: 8, KCoarse: 6, OPQIters: 3, KMeansIters: 8, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	q := ds.Vector(0)
	cs := imi.NewCellSequence(q)
	prev := -1.0
	visited := 0
	total := 0
	for {
		items, score, ok := cs.Next()
		if !ok {
			break
		}
		if score < prev-1e-12 {
			t.Fatalf("cell scores decreased: %g -> %g", prev, score)
		}
		prev = score
		visited++
		total += len(items)
	}
	if visited != 6*6 {
		t.Fatalf("visited %d cells, want 36", visited)
	}
	if total != ds.N() {
		t.Fatalf("cells contain %d items, want %d", total, ds.N())
	}
}

func TestCellSequenceScoresAreTrueSums(t *testing.T) {
	ds := qdata(t, 300, 8)
	imi, err := BuildIMI(ds.Vectors, ds.N(), ds.Dim, IMIConfig{M: 2, KFine: 4, KCoarse: 4, OPQIters: 3, KMeansIters: 8, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	q := ds.Vector(1)
	d := imi.OPQ.PQ.Dim
	rot := make([]float32, d)
	imi.OPQ.Rotate(q, rot)
	// Recompute du/dv directly.
	var expect []float64
	for u := 0; u < imi.K; u++ {
		for v := 0; v < imi.K; v++ {
			w0, w1 := imi.halfWidth[0], imi.halfWidth[1]
			du := vecmath.SquaredL2(rot[:w0], imi.coarse[0][u*w0:(u+1)*w0])
			dv := vecmath.SquaredL2(rot[w0:], imi.coarse[1][v*w1:(v+1)*w1])
			expect = append(expect, du+dv)
		}
	}
	sort.Float64s(expect)
	cs := imi.NewCellSequence(q)
	for i := 0; ; i++ {
		_, score, ok := cs.Next()
		if !ok {
			if i != len(expect) {
				t.Fatalf("sequence ended after %d cells, want %d", i, len(expect))
			}
			break
		}
		if math.Abs(score-expect[i]) > 1e-9 {
			t.Fatalf("cell %d score %g, want %g", i, score, expect[i])
		}
	}
}

func TestRetrieveBudget(t *testing.T) {
	ds := qdata(t, 400, 12)
	imi, err := BuildIMI(ds.Vectors, ds.N(), ds.Dim, IMIConfig{M: 3, KFine: 8, KCoarse: 5, OPQIters: 3, KMeansIters: 8, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	cands := imi.Retrieve(ds.Vector(0), 50)
	if len(cands) < 50 {
		t.Fatalf("retrieved %d candidates, want >= 50", len(cands))
	}
	all := imi.Retrieve(ds.Vector(0), ds.N()*2)
	if len(all) != ds.N() {
		t.Fatalf("full retrieve returned %d, want %d", len(all), ds.N())
	}
	seen := make(map[int32]bool)
	for _, id := range all {
		if seen[id] {
			t.Fatalf("item %d retrieved twice", id)
		}
		seen[id] = true
	}
}

func TestSearchADCFindsNeighbors(t *testing.T) {
	// With a full budget, ADC ranking must place the query's own vector
	// first (distance to own reconstruction is minimal in practice).
	ds := qdata(t, 500, 12)
	ds.SampleQueries(10, 92)
	ds.ComputeGroundTruth(10)
	imi, err := BuildIMI(ds.Vectors, ds.N(), ds.Dim, IMIConfig{M: 4, KFine: 16, KCoarse: 6, OPQIters: 4, KMeansIters: 10, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	// ADC is approximate; require that a good fraction of the true
	// top-10 appear in the ADC top-20 at full budget.
	hits := 0
	for qi := 0; qi < ds.NQ(); qi++ {
		got := imi.SearchADC(ds.Query(qi), 20, ds.N())
		inGot := make(map[int32]bool)
		for _, id := range got {
			inGot[id] = true
		}
		for _, id := range ds.GroundTruth[qi] {
			if inGot[id] {
				hits++
			}
		}
	}
	totalGT := ds.NQ() * 10
	if hits*2 < totalGT {
		t.Fatalf("ADC found only %d/%d true neighbors", hits, totalGT)
	}
}

func TestFineCodesStored(t *testing.T) {
	ds := qdata(t, 200, 8)
	imi, err := BuildIMI(ds.Vectors, ds.N(), ds.Dim, IMIConfig{M: 2, KFine: 4, KCoarse: 4, OPQIters: 3, KMeansIters: 8, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	d := imi.OPQ.PQ.Dim
	rot := make([]float32, d)
	for i := int32(0); i < 20; i++ {
		imi.OPQ.Rotate(ds.Vector(int(i)), rot)
		want := imi.OPQ.PQ.Encode(rot, nil)
		got := imi.FineCode(i)
		for s := range want {
			if got[s] != want[s] {
				t.Fatalf("item %d: stored fine code differs", i)
			}
		}
	}
}
