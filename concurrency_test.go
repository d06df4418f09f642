package gqr

import (
	"sync"
	"testing"

	"gqr/internal/dataset"
)

// concurrencyData builds a small corpus for the stress tests.
func concurrencyData(t *testing.T) *dataset.Dataset {
	t.Helper()
	ds := dataset.Generate(dataset.GeneratorSpec{
		Name: "conc", N: 2000, Dim: 16, Clusters: 8, LatentDim: 6, Seed: 97,
	})
	ds.SampleQueries(16, 98)
	return ds
}

// TestConcurrentAddSearchBatch hammers Add, Search, SearchWithStats,
// SearchBatch and Stats from many goroutines at once. Run under -race
// this is the regression test for the snapshot design: before it,
// SearchBatchWithStats workers read the index and method fields without
// the search mutex while Add mutated the bucket maps under it, a
// genuine data race (and Search serialized every caller besides).
func TestConcurrentAddSearchBatch(t *testing.T) {
	ds := concurrencyData(t)
	for _, m := range []QueryMethod{GQR, HR} {
		m := m
		t.Run(string(m), func(t *testing.T) {
			ix, err := Build(ds.Vectors, ds.Dim, WithQueryMethod(m), WithSeed(99))
			if err != nil {
				t.Fatal(err)
			}
			const (
				adders    = 2
				searchers = 4
				batchers  = 2
				rounds    = 50
			)
			var wg sync.WaitGroup
			for a := 0; a < adders; a++ {
				wg.Add(1)
				go func(a int) {
					defer wg.Done()
					for i := 0; i < rounds; i++ {
						if _, err := ix.Add(ds.Vector((a*rounds + i) % ds.N())); err != nil {
							t.Error(err)
							return
						}
					}
				}(a)
			}
			for s := 0; s < searchers; s++ {
				wg.Add(1)
				go func(s int) {
					defer wg.Done()
					for i := 0; i < rounds; i++ {
						q := ds.Query((s + i) % ds.NQ())
						if s%2 == 0 {
							if _, err := ix.Search(q, 5, WithMaxCandidates(200)); err != nil {
								t.Error(err)
								return
							}
						} else {
							if _, _, err := ix.SearchWithStats(q, 5, WithMaxCandidates(200)); err != nil {
								t.Error(err)
								return
							}
						}
						_ = ix.Stats()
					}
				}(s)
			}
			for bt := 0; bt < batchers; bt++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					block := make([]float32, 0, 4*ds.Dim)
					for qi := 0; qi < 4; qi++ {
						block = append(block, ds.Query(qi)...)
					}
					for i := 0; i < rounds/2; i++ {
						results, err := ix.SearchBatchWithStats(block, 5, WithMaxCandidates(200))
						if err != nil {
							t.Error(err)
							return
						}
						for _, r := range results {
							if r.Err != nil {
								t.Error(r.Err)
								return
							}
						}
					}
				}()
			}
			wg.Wait()

			// Every added vector must be visible to a search issued after
			// all Adds returned (the refresh republishes the snapshot).
			st := ix.Stats()
			if st.Items != ds.N()+adders*rounds {
				t.Fatalf("Items = %d, want %d", st.Items, ds.N()+adders*rounds)
			}
			if _, err := ix.Search(ds.Query(0), 5, WithMaxCandidates(200)); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestAddVisibleToNextSearch pins the snapshot visibility contract: a
// Search issued after Add returns must see the added vector.
func TestAddVisibleToNextSearch(t *testing.T) {
	ds := concurrencyData(t)
	ix, err := Build(ds.Vectors, ds.Dim, WithSeed(105))
	if err != nil {
		t.Fatal(err)
	}
	id, err := ix.Add(ds.Query(3))
	if err != nil {
		t.Fatal(err)
	}
	nbrs, err := ix.Search(ds.Query(3), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(nbrs) == 0 || nbrs[0].ID != id || nbrs[0].Distance != 0 {
		t.Fatalf("added vector not visible to next search: %v", nbrs)
	}
}
