package gqr

import (
	"reflect"
	"sync"
	"testing"

	"gqr/internal/dataset"
)

// flatQueries packs every dataset query into one nq×dim block.
func flatQueries(ds *dataset.Dataset) []float32 {
	flat := make([]float32, 0, ds.NQ()*ds.Dim)
	for qi := 0; qi < ds.NQ(); qi++ {
		flat = append(flat, ds.Query(qi)...)
	}
	return flat
}

// TestBatchMatchesSequentialOracle is the batched-execution oracle: for
// every querying method, with and without re-ranking, across lifecycle
// states (tombstones pending) and query predicates (tag mask, filter),
// SearchBatchWithStats must return bit-identical per-query results —
// neighbors AND work counters — to sequential SearchWithStats calls.
// SH and KMH cover the learners whose projections are not affine.
func TestBatchMatchesSequentialOracle(t *testing.T) {
	ds := demoData(t)
	flat := flatQueries(ds)
	const k = 10

	type variant struct {
		name string
		opts []SearchOption
	}
	variants := []variant{
		{"budget", []SearchOption{WithMaxCandidates(120)}},
		{"earlystop", []SearchOption{WithMaxCandidates(400), WithEarlyStop()}},
		{"tagmask", []SearchOption{WithMaxCandidates(200), WithTagMask(1)}},
		{"filter", []SearchOption{WithMaxCandidates(200), WithFilter(func(id int, _ uint64) bool { return id%3 != 0 })}},
	}

	type build struct {
		name string
		opts []Option
	}
	builds := []build{
		{"gqr", []Option{WithQueryMethod(GQR)}},
		{"qr", []Option{WithQueryMethod(QR)}},
		{"hr", []Option{WithQueryMethod(HR)}},
		{"ghr", []Option{WithQueryMethod(GHR)}},
		{"mih", []Option{WithQueryMethod(MIH)}},
		{"gqr-rerank", []Option{WithQueryMethod(GQR), WithReranking(0, 0, 0)}},
		{"hr-rerank", []Option{WithQueryMethod(HR), WithReranking(0, 0, 0)}},
		{"gqr-sh", []Option{WithQueryMethod(GQR), WithAlgorithm(SH)}},
		{"gqr-kmh", []Option{WithQueryMethod(GQR), WithAlgorithm(KMH)}},
		{"hr-kmh", []Option{WithQueryMethod(HR), WithAlgorithm(KMH)}},
		{"qr-sh", []Option{WithQueryMethod(QR), WithAlgorithm(SH)}},
		{"gqr-angular", []Option{WithQueryMethod(GQR), WithMetric(Angular)}},
		{"gqr-tables", []Option{WithQueryMethod(GQR), WithTables(3)}},
	}

	for _, b := range builds {
		ix, err := Build(ds.Vectors, ds.Dim, append([]Option{WithSeed(41)}, b.opts...)...)
		if err != nil {
			t.Fatalf("%s: %v", b.name, err)
		}
		// Metadata for the tag-mask variant: odd ids carry bit 0.
		meta := make([]uint64, ds.N())
		for i := range meta {
			meta[i] = uint64(i % 2)
		}
		if err := ix.SetMetadata(meta); err != nil {
			t.Fatal(err)
		}
		// Pending tombstones: delete a scatter of ids so the filtered
		// gather path runs.
		for id := 5; id < ds.N(); id += 37 {
			if err := ix.Delete(id); err != nil {
				t.Fatalf("%s: delete %d: %v", b.name, id, err)
			}
		}
		for _, v := range variants {
			results, err := ix.SearchBatchWithStats(flat, k, v.opts...)
			if err != nil {
				t.Fatalf("%s/%s: batch: %v", b.name, v.name, err)
			}
			if len(results) != ds.NQ() {
				t.Fatalf("%s/%s: %d results for %d queries", b.name, v.name, len(results), ds.NQ())
			}
			for qi, r := range results {
				if r.Err != nil {
					t.Fatalf("%s/%s query %d: %v", b.name, v.name, qi, r.Err)
				}
				want, wantSt, err := ix.SearchWithStats(ds.Query(qi), k, v.opts...)
				if err != nil {
					t.Fatalf("%s/%s query %d: sequential: %v", b.name, v.name, qi, err)
				}
				if !reflect.DeepEqual(r.Neighbors, want) {
					t.Fatalf("%s/%s query %d: batch neighbors %v != sequential %v", b.name, v.name, qi, r.Neighbors, want)
				}
				if r.Stats != wantSt {
					t.Fatalf("%s/%s query %d: batch stats %+v != sequential %+v", b.name, v.name, qi, r.Stats, wantSt)
				}
			}
		}
	}
}

// TestBatchDuplicateQueries: a batch with byte-identical members must
// return each duplicate the same neighbors and stats a sequential search
// of that query yields, with its own result slice (mutating one copy
// must not leak into another).
func TestBatchDuplicateQueries(t *testing.T) {
	ds := demoData(t)
	for _, build := range [][]Option{
		{WithSeed(45)},
		{WithSeed(45), WithReranking(0, 0, 0)},
		{WithSeed(45), WithMetric(Angular)},
	} {
		ix, err := Build(ds.Vectors, ds.Dim, build...)
		if err != nil {
			t.Fatal(err)
		}
		// q0 q1 q0 q2 q1 q0: duplicates scattered, not adjacent.
		pattern := []int{0, 1, 0, 2, 1, 0}
		flat := make([]float32, 0, len(pattern)*ds.Dim)
		for _, qi := range pattern {
			flat = append(flat, ds.Query(qi)...)
		}
		results, err := ix.SearchBatchWithStats(flat, 7, WithMaxCandidates(300))
		if err != nil {
			t.Fatal(err)
		}
		for i, qi := range pattern {
			if results[i].Err != nil {
				t.Fatalf("member %d: %v", i, results[i].Err)
			}
			want, wantSt, err := ix.SearchWithStats(ds.Query(qi), 7, WithMaxCandidates(300))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(results[i].Neighbors, want) {
				t.Fatalf("member %d (query %d): %v != sequential %v", i, qi, results[i].Neighbors, want)
			}
			if results[i].Stats != wantSt {
				t.Fatalf("member %d (query %d): stats %+v != sequential %+v", i, qi, results[i].Stats, wantSt)
			}
		}
		// Copies own their memory: corrupting member 0 leaves member 2
		// (the same query) intact.
		if len(results[0].Neighbors) == 0 {
			t.Fatal("no neighbors")
		}
		results[0].Neighbors[0].ID = -999
		if results[2].Neighbors[0].ID == -999 {
			t.Fatal("duplicate results share a neighbor slice")
		}
	}
}

// TestBatchSearchAllocs is the batch path's allocation gate, the batch
// counterpart of TestPublicSearchAllocs: a warmed batch allocates its
// result slices and per-batch bookkeeping but no per-query searcher
// scratch — the old implementation's per-worker sequence churn would
// cost tens of allocations per query and trips this immediately.
func TestBatchSearchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are nondeterministic under -race")
	}
	ds := demoData(t)
	ix, err := Build(ds.Vectors, ds.Dim, WithSeed(43))
	if err != nil {
		t.Fatal(err)
	}
	flat := flatQueries(ds)
	nq := ds.NQ()
	// Warm the snapshot's searcher pool.
	for i := 0; i < 3; i++ {
		if _, err := ix.SearchBatchWithStats(flat, 10, WithMaxCandidates(500)); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := ix.SearchBatchWithStats(flat, 10, WithMaxCandidates(500)); err != nil {
			t.Fatal(err)
		}
	})
	// Budget: ≤5 allocations per query on average covers the per-query
	// neighbor slice plus worker/goroutine overhead, with no room for
	// per-query scratch rebuilds.
	if budget := float64(5 * nq); allocs > budget {
		t.Fatalf("batch of %d queries allocated %.1f times (budget %.0f)", nq, allocs, budget)
	}
}

// TestBatchConcurrentLifecycleStress runs batched searches against a
// live index while a writer adds, deletes and seals concurrently —
// the -race stress of the batch fan-out's one snapshot per batch and
// its pooled searchers. Results are not checked against
// an oracle here (the corpus moves underneath); the invariants are no
// data race, no panic, and well-formed per-query results.
func TestBatchConcurrentLifecycleStress(t *testing.T) {
	ds := demoData(t)
	ix, err := Build(ds.Vectors, ds.Dim, WithSeed(44), WithMemtableSize(32), WithReranking(0, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	flat := flatQueries(ds)
	iters := 30
	if testing.Short() {
		iters = 8
	}
	var writer, searchers sync.WaitGroup
	stop := make(chan struct{})
	writer.Add(1)
	go func() { // writer: adds force seals; deletes leave tombstones
		defer writer.Done()
		id := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := ix.Add(ds.Vector(id % ds.N())); err != nil {
				t.Error(err)
				return
			}
			if id%3 == 0 {
				_ = ix.Delete(id % ds.N()) // ErrNotFound on repeats is fine
			}
			id++
		}
	}()
	for w := 0; w < 3; w++ {
		searchers.Add(1)
		go func(w int) {
			defer searchers.Done()
			for i := 0; i < iters; i++ {
				results, err := ix.SearchBatchWithStats(flat, 5, WithMaxCandidates(150))
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				for qi, r := range results {
					if r.Err != nil {
						t.Errorf("worker %d query %d: %v", w, qi, r.Err)
						return
					}
					for j := 1; j < len(r.Neighbors); j++ {
						if r.Neighbors[j].Distance < r.Neighbors[j-1].Distance {
							t.Errorf("worker %d query %d: unsorted result", w, qi)
							return
						}
					}
				}
			}
		}(w)
	}
	// The writer runs until every searcher is done, then the index shuts
	// down cleanly (Close waits for background persists and merges).
	searchers.Wait()
	close(stop)
	writer.Wait()
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
}
