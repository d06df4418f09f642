package gqr

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"testing"

	"gqr/internal/dataset"
)

// demoData builds a small corpus plus queries and exact ground truth.
func demoData(t testing.TB) *dataset.Dataset {
	t.Helper()
	ds := dataset.Generate(dataset.GeneratorSpec{
		Name: "api", N: 800, Dim: 16, Clusters: 6, LatentDim: 4, Seed: 7,
	})
	ds.SampleQueries(10, 8)
	ds.ComputeGroundTruth(10)
	return ds
}

func TestBuildDefaultsAndStats(t *testing.T) {
	ds := demoData(t)
	ix, err := Build(ds.Vectors, ds.Dim)
	if err != nil {
		t.Fatal(err)
	}
	s := ix.Stats()
	if s.Items != ds.N() || s.Dim != 16 || s.Tables != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if s.Algorithm != ITQ || s.Method != GQR {
		t.Fatalf("defaults wrong: %+v", s)
	}
	// log2(790/10) ≈ 6.3 -> 6 bits.
	if s.CodeLength < 5 || s.CodeLength > 7 {
		t.Fatalf("code length = %d", s.CodeLength)
	}
	if len(s.Buckets) != 1 || s.Buckets[0] <= 1 {
		t.Fatalf("bucket stats = %v", s.Buckets)
	}
}

func TestUnboundedSearchIsExact(t *testing.T) {
	ds := demoData(t)
	for _, alg := range []Algorithm{ITQ, PCAH, SH, KMH, LSH, SSH} {
		for _, m := range []QueryMethod{GQR, QR, HR, GHR, MIH} {
			ix, err := Build(ds.Vectors, ds.Dim, WithAlgorithm(alg), WithQueryMethod(m), WithSeed(3))
			if err != nil {
				t.Fatalf("%s/%s: %v", alg, m, err)
			}
			for qi := 0; qi < 3; qi++ {
				nbrs, err := ix.Search(ds.Query(qi), 10)
				if err != nil {
					t.Fatal(err)
				}
				for i, id := range ds.GroundTruth[qi] {
					if nbrs[i].ID != int(id) {
						t.Fatalf("%s/%s query %d: got %v, want %v", alg, m, qi, nbrs, ds.GroundTruth[qi])
					}
				}
			}
		}
	}
}

func TestSearchBudgetTradesRecall(t *testing.T) {
	ds := demoData(t)
	ix, err := Build(ds.Vectors, ds.Dim, WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	recallAt := func(budget int) float64 {
		total := 0.0
		for qi := 0; qi < ds.NQ(); qi++ {
			nbrs, err := ix.Search(ds.Query(qi), 10, WithMaxCandidates(budget))
			if err != nil {
				t.Fatal(err)
			}
			in := make(map[int]bool)
			for _, nb := range nbrs {
				in[nb.ID] = true
			}
			hit := 0
			for _, id := range ds.GroundTruth[qi] {
				if in[int(id)] {
					hit++
				}
			}
			total += float64(hit) / 10
		}
		return total / float64(ds.NQ())
	}
	low, high := recallAt(20), recallAt(ds.N())
	if high != 1 {
		t.Fatalf("full budget recall = %g", high)
	}
	if low > high {
		t.Fatalf("budget recall ordering broken: %g > %g", low, high)
	}
}

func TestEarlyStopSameResults(t *testing.T) {
	ds := demoData(t)
	ix, err := Build(ds.Vectors, ds.Dim, WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	if ix.muScale == 0 {
		t.Fatal("ITQ index must expose an early-stop scale")
	}
	for qi := 0; qi < ds.NQ(); qi++ {
		plain, err := ix.Search(ds.Query(qi), 10)
		if err != nil {
			t.Fatal(err)
		}
		es, err := ix.Search(ds.Query(qi), 10, WithEarlyStop())
		if err != nil {
			t.Fatal(err)
		}
		if len(plain) != len(es) {
			t.Fatal("early stop changed result count")
		}
		for i := range plain {
			if plain[i].ID != es[i].ID {
				t.Fatalf("early stop changed results: %v vs %v", plain, es)
			}
		}
	}
}

func TestDistancesAreExactEuclidean(t *testing.T) {
	ds := demoData(t)
	ix, err := Build(ds.Vectors, ds.Dim, WithSeed(6))
	if err != nil {
		t.Fatal(err)
	}
	nbrs, err := ix.Search(ds.Query(0), 5)
	if err != nil {
		t.Fatal(err)
	}
	if !sort.SliceIsSorted(nbrs, func(i, j int) bool { return nbrs[i].Distance < nbrs[j].Distance }) {
		t.Fatal("neighbors not sorted by distance")
	}
	q := ds.Query(0)
	for _, nb := range nbrs {
		v := ds.Vector(nb.ID)
		var s float64
		for j := range q {
			d := float64(q[j]) - float64(v[j])
			s += d * d
		}
		if math.Abs(nb.Distance-math.Sqrt(s)) > 1e-9 {
			t.Fatalf("distance %g != exact %g", nb.Distance, math.Sqrt(s))
		}
	}
}

func TestConcurrentSearch(t *testing.T) {
	ds := demoData(t)
	ix, err := Build(ds.Vectors, ds.Dim, WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				qi := (g + i) % ds.NQ()
				nbrs, err := ix.Search(ds.Query(qi), 5, WithMaxCandidates(100))
				if err != nil {
					errs <- err
					return
				}
				if len(nbrs) != 5 {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestBuildValidation(t *testing.T) {
	ds := demoData(t)
	cases := []struct {
		name string
		err  bool
		opts []Option
		vecs []float32
		dim  int
	}{
		{"bad-alg", true, []Option{WithAlgorithm("nope")}, ds.Vectors, ds.Dim},
		{"bad-method", true, []Option{WithQueryMethod("nope")}, ds.Vectors, ds.Dim},
		{"bad-bits", true, []Option{WithCodeLength(99)}, ds.Vectors, ds.Dim},
		{"bad-tables", true, []Option{WithTables(0)}, ds.Vectors, ds.Dim},
		{"bad-dim", true, nil, ds.Vectors, 17},
		{"empty", true, nil, nil, 16},
		{"ok", false, []Option{WithCodeLength(8), WithTables(2)}, ds.Vectors, ds.Dim},
	}
	for _, c := range cases {
		_, err := Build(c.vecs, c.dim, c.opts...)
		if (err != nil) != c.err {
			t.Fatalf("%s: err = %v", c.name, err)
		}
	}
}

func TestWithExpectedBucketSize(t *testing.T) {
	ds := demoData(t)
	small, err := Build(ds.Vectors, ds.Dim, WithExpectedBucketSize(2))
	if err != nil {
		t.Fatal(err)
	}
	big, err := Build(ds.Vectors, ds.Dim, WithExpectedBucketSize(100))
	if err != nil {
		t.Fatal(err)
	}
	if small.Stats().CodeLength <= big.Stats().CodeLength {
		t.Fatalf("EP=2 gave %d bits, EP=100 gave %d", small.Stats().CodeLength, big.Stats().CodeLength)
	}
}

func TestKMHOddCodeLengthRoundsUp(t *testing.T) {
	// 790 items / EP 5 -> log2(158) ≈ 7 bits, odd; KMH must round to 8.
	ds := demoData(t)
	ix, err := Build(ds.Vectors, ds.Dim, WithAlgorithm(KMH), WithExpectedBucketSize(5))
	if err != nil {
		t.Fatal(err)
	}
	if ix.Stats().CodeLength%2 != 0 {
		t.Fatalf("KMH code length %d not even", ix.Stats().CodeLength)
	}
}

// TestSearchHugeKIsBounded: k comes straight from a request body and
// used to size the result heaps (and factor·k the re-ranking heap), so
// k = 2·10⁸ allocated gigabytes and k = 2⁵⁰ panicked in makeslice. A
// search can return at most every item; asking for more must cost
// no more than asking for all of them.
func TestSearchHugeKIsBounded(t *testing.T) {
	ds := demoData(t)
	for name, opts := range map[string][]Option{
		"plain":    {WithSeed(5)},
		"reranked": {WithSeed(5), WithReranking(4, 16, math.MaxInt/3)},
	} {
		ix, err := Build(ds.Vectors, ds.Dim, opts...)
		if err != nil {
			t.Fatal(err)
		}
		for _, so := range [][]SearchOption{nil, {WithEarlyStop()}} {
			for _, k := range []int{200_000_000, 1 << 50, math.MaxInt} {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				nbrs, err := ix.Search(ds.Query(0), k, so...)
				runtime.ReadMemStats(&after)
				if err != nil {
					t.Fatalf("%s k=%d: %v", name, k, err)
				}
				if len(nbrs) != ds.N() {
					t.Fatalf("%s k=%d: %d neighbours, the index holds %d", name, k, len(nbrs), ds.N())
				}
				if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
					t.Fatalf("%s k=%d: allocated %d bytes for %d neighbours", name, k, got, len(nbrs))
				}
			}
		}
	}
}

func TestSearchErrors(t *testing.T) {
	ds := demoData(t)
	ix, err := Build(ds.Vectors, ds.Dim)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Search(ds.Query(0), 0); err == nil {
		t.Fatal("k=0 must error")
	}
	if _, err := ix.Search(ds.Query(0)[:4], 5); err == nil {
		t.Fatal("wrong dim must error")
	}
}
