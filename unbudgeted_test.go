package gqr

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"gqr/internal/dataset"
	"gqr/internal/vecmath"
)

// An unbudgeted search — the API default — must evaluate every live
// item, and a generate-to-probe method reaches the last occupied bucket
// only near the end of its 2^m codes: 16.7 million at 24 bits (seconds),
// 10^12 at 40 (it never came back, its frontier growing until the OS
// killed the process). The searcher now stops generating once it has
// generated more buckets than the view has items and sweeps the ids it
// has not visited; these tests hold the answer to the exhaustive one and
// the work to the item count, on codes long enough that the old path
// would not finish inside the test timeout.

// unbudgetedCorpus builds an index over long codes with every kind of id
// a sweep can meet: live, tombstoned and still in a posting list,
// tombstoned and purged by a seal, and tagged for the filter. It returns
// the live vectors by id.
func unbudgetedCorpus(t *testing.T, bits int, method QueryMethod, rerank bool) (*Index, *dataset.Dataset, map[int][]float32) {
	t.Helper()
	ds := dataset.Generate(dataset.GeneratorSpec{
		Name: "unbudgeted", N: 1500, Dim: 16, Clusters: 8, LatentDim: 4, Seed: 23,
	})
	ds.SampleQueries(4, 24)
	const base = 1100
	opts := []Option{WithAlgorithm(LSH), WithCodeLength(bits), WithQueryMethod(method), WithSeed(9), WithMemtableSize(128)}
	if rerank {
		opts = append(opts, WithReranking(8, 64, 8))
	}
	ix, err := Build(ds.Vectors[:base*ds.Dim], ds.Dim, opts...)
	if err != nil {
		t.Fatal(err)
	}
	live := make(map[int][]float32, ds.N())
	for id := 0; id < base; id++ {
		live[id] = ds.Vector(id)
	}
	del := func(id int) {
		if err := ix.Delete(id); err != nil {
			t.Fatal(err)
		}
		delete(live, id)
	}
	for i := base; i < ds.N(); i++ {
		id, err := ix.AddWithMeta(ds.Vector(i), uint64(i%4))
		if err != nil {
			t.Fatal(err)
		}
		live[id] = ds.Vector(i)
		// Deleted while still in the memtable: the seal that follows
		// drops these from the posting lists for good.
		if i%7 == 0 {
			del(id)
		}
	}
	for id := 0; id < base; id += 11 {
		del(id) // base-segment ids: tombstoned, still in their buckets
	}
	if st := ix.Stats(); st.PendingTombstones == 0 || st.PendingTombstones >= st.Tombstones || st.LiveItems != len(live) {
		t.Fatalf("corpus has %d live items (want %d), %d tombstones, %d pending: want both pending and purged ones", st.LiveItems, len(live), st.Tombstones, st.PendingTombstones)
	}
	return ix, ds, live
}

// exhaustive is the answer an unbudgeted search owes: the k nearest of
// the items keep admits, by (distance, id), distances bit for bit.
func exhaustive(q []float32, live map[int][]float32, keep func(id int) bool, k int) []Neighbor {
	var all []Neighbor
	for id, v := range live {
		if keep(id) {
			all = append(all, Neighbor{ID: id, Distance: math.Sqrt(vecmath.SquaredL2(q, v))})
		}
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].Distance != all[b].Distance {
			return all[a].Distance < all[b].Distance
		}
		return all[a].ID < all[b].ID
	})
	return all[:min(k, len(all))]
}

func TestUnbudgetedSearchOnLongCodesIsExhaustive(t *testing.T) {
	const k = 10
	for _, bits := range []int{24, 40} {
		for _, method := range []QueryMethod{GQR, GHR, QR, HR, MIH} {
			for _, rerank := range []bool{false, true} {
				ix, ds, live := unbudgetedCorpus(t, bits, method, rerank)
				items := ix.Stats().Items
				for _, filtered := range []bool{false, true} {
					label := fmt.Sprintf("%d bits %s rerank=%v filtered=%v", bits, method, rerank, filtered)
					keep := func(int) bool { return true }
					var so []SearchOption
					if filtered {
						// Base items carry no metadata word; of the added
						// ones, every fourth has both bits.
						keep = func(id int) bool { return id >= 1100 && id%4 == 3 }
						so = []SearchOption{WithTagMask(3)}
					}
					admitted := 0
					for id := range live {
						if keep(id) {
							admitted++
						}
					}
					for qi := 0; qi < ds.NQ(); qi++ {
						got, st, err := ix.SearchWithStats(ds.Query(qi), k, so...)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						want := exhaustive(ds.Query(qi), live, keep, k)
						if len(got) != len(want) {
							t.Fatalf("%s query %d: %d neighbours, brute force %d", label, qi, len(got), len(want))
						}
						for i := range want {
							if got[i] != want[i] {
								t.Fatalf("%s query %d rank %d: %+v, brute force %+v", label, qi, i, got[i], want[i])
							}
						}
						if st.BucketsGenerated > items+1 {
							t.Fatalf("%s query %d: generated %d buckets over %d items", label, qi, st.BucketsGenerated, items)
						}
						if st.Candidates != admitted || st.Candidates+st.Filtered > items {
							t.Fatalf("%s query %d: %d candidates and %d filtered; %d of %d items are live and admitted", label, qi, st.Candidates, st.Filtered, admitted, items)
						}
					}
				}

				// A budget names its own end: that search must not sweep.
				if method == GQR || method == GHR {
					_, st, err := ix.SearchWithStats(ds.Query(0), k, WithMaxBuckets(3*items))
					if err != nil {
						t.Fatalf("%d bits %s: budgeted search: %v", bits, method, err)
					}
					if st.BucketsGenerated != 3*items {
						t.Fatalf("%d bits %s: a %d-bucket budget generated %d buckets", bits, method, 3*items, st.BucketsGenerated)
					}
				}
			}
		}
	}
}
