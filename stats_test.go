package gqr

import (
	"reflect"
	"testing"

	"gqr/internal/query"
)

// workOf strips the timing fields so work counters can be compared
// exactly (clock reads differ run to run).
func workOf(s SearchStats) SearchStats {
	s.RetrievalTime, s.EvaluationTime = 0, 0
	return s
}

// TestSearchStatsMergeCoversEveryField sets every field of two
// SearchStats by reflection and checks that Merge sums each count and
// duration and ORs each bool, so a counter added later that Merge
// forgets fails here rather than vanishing from /batch totals and the
// server's per-request work accounting.
func TestSearchStatsMergeCoversEveryField(t *testing.T) {
	for _, bools := range [][2]bool{{false, true}, {true, false}, {false, false}} {
		var a, b, want SearchStats
		va, vb, vw := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem(), reflect.ValueOf(&want).Elem()
		for i := 0; i < va.NumField(); i++ {
			f := va.Type().Field(i)
			switch f.Type.Kind() {
			case reflect.Int, reflect.Int64: // counts and time.Duration
				x, y := int64(i+1), int64(1000*(i+1))
				va.Field(i).SetInt(x)
				vb.Field(i).SetInt(y)
				vw.Field(i).SetInt(x + y)
			case reflect.Bool:
				va.Field(i).SetBool(bools[0])
				vb.Field(i).SetBool(bools[1])
				vw.Field(i).SetBool(bools[0] || bools[1])
			default:
				t.Fatalf("field %s has kind %s: say here how Merge combines it", f.Name, f.Type.Kind())
			}
		}
		a.Merge(b)
		for i := 0; i < va.NumField(); i++ {
			if got, w := va.Field(i).Interface(), vw.Field(i).Interface(); got != w {
				t.Errorf("bools %v: Merge left %s = %v, want %v", bools, va.Type().Field(i).Name, got, w)
			}
		}
	}
}

// TestSearchWithStatsMatchesInternal verifies, for every querying
// method, that the public SearchWithStats reports exactly the work the
// internal searcher performed with the same options.
func TestSearchWithStatsMatchesInternal(t *testing.T) {
	ds := demoData(t)
	for _, method := range []QueryMethod{HR, QR, GHR, GQR, MIH} {
		ix, err := Build(ds.Vectors, ds.Dim, WithQueryMethod(method), WithSeed(21))
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		for qi := 0; qi < ds.NQ(); qi++ {
			q := ds.Query(qi)
			nbrs, st, err := ix.SearchWithStats(q, 5, WithMaxCandidates(100))
			if err != nil {
				t.Fatalf("%s: %v", method, err)
			}
			// An independent searcher over the same snapshot must do the
			// identical work.
			snap := ix.snap.Load()
			ref := query.NewSearcher(snap.view, snap.method)
			res, err := ref.Search(q, query.Options{K: 5, MaxCandidates: 100, Mu: snap.mu})
			if err != nil {
				t.Fatalf("%s: %v", method, err)
			}
			if got, want := workOf(st), workOf(statsOf(res.Stats)); got != want {
				t.Fatalf("%s query %d: stats %+v != internal %+v", method, qi, got, want)
			}
			if len(nbrs) != len(res.IDs) {
				t.Fatalf("%s query %d: %d neighbors, internal %d", method, qi, len(nbrs), len(res.IDs))
			}
			// Work-counter sanity in the paper's terms.
			if st.Candidates == 0 || st.BucketsProbed == 0 || st.BucketsGenerated < st.BucketsProbed {
				t.Fatalf("%s query %d: implausible stats %+v", method, qi, st)
			}
			// HR/QR/MIH only emit non-empty buckets; generate-to-probe
			// methods may also generate empty ones.
			if (method == HR || method == QR || method == MIH) && st.BucketsGenerated != st.BucketsProbed {
				t.Fatalf("%s query %d: generated %d != probed %d for a non-generating method",
					method, qi, st.BucketsGenerated, st.BucketsProbed)
			}
		}
	}
}

func TestSearchWithStatsProfile(t *testing.T) {
	ds := demoData(t)
	ix, err := Build(ds.Vectors, ds.Dim, WithSeed(22))
	if err != nil {
		t.Fatal(err)
	}
	_, st, err := ix.SearchWithStats(ds.Query(0), 5, WithMaxCandidates(200), WithProfile())
	if err != nil {
		t.Fatal(err)
	}
	if st.RetrievalTime <= 0 || st.EvaluationTime <= 0 {
		t.Fatalf("profile requested but times empty: %+v", st)
	}
	_, st2, err := ix.SearchWithStats(ds.Query(0), 5, WithMaxCandidates(200))
	if err != nil {
		t.Fatal(err)
	}
	if st2.RetrievalTime != 0 || st2.EvaluationTime != 0 {
		t.Fatalf("times populated without WithProfile: %+v", st2)
	}
}

func TestSearchWithStatsEarlyStop(t *testing.T) {
	ds := demoData(t)
	ix, err := Build(ds.Vectors, ds.Dim, WithSeed(23))
	if err != nil {
		t.Fatal(err)
	}
	stopped := false
	for qi := 0; qi < ds.NQ(); qi++ {
		_, st, err := ix.SearchWithStats(ds.Query(qi), 3, WithEarlyStop())
		if err != nil {
			t.Fatal(err)
		}
		if st.EarlyStopped {
			stopped = true
			// Early stop prunes probing: strictly less than the whole
			// bucket population must have been generated.
			if st.BucketsGenerated >= ix.live.BucketCount(0) {
				t.Fatalf("early stop did not prune: %+v", st)
			}
		}
	}
	if !stopped {
		t.Fatal("QD early stop never fired on the demo corpus")
	}
}

func TestSearchBatchWithStatsPerQuery(t *testing.T) {
	ds := demoData(t)
	ix, err := Build(ds.Vectors, ds.Dim, WithSeed(25))
	if err != nil {
		t.Fatal(err)
	}
	flat := make([]float32, 0, ds.NQ()*ds.Dim)
	for qi := 0; qi < ds.NQ(); qi++ {
		flat = append(flat, ds.Query(qi)...)
	}
	results, err := ix.SearchBatchWithStats(flat, 4, WithMaxCandidates(80))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != ds.NQ() {
		t.Fatalf("%d results", len(results))
	}
	for qi, res := range results {
		if res.Err != nil {
			t.Fatalf("query %d: %v", qi, res.Err)
		}
		_, want, err := ix.SearchWithStats(ds.Query(qi), 4, WithMaxCandidates(80))
		if err != nil {
			t.Fatal(err)
		}
		if got := workOf(res.Stats); got != workOf(want) {
			t.Fatalf("query %d: batch stats %+v != single %+v", qi, got, want)
		}
	}
}

func TestSearchBatchStructuralErrors(t *testing.T) {
	ds := demoData(t)
	ix, err := Build(ds.Vectors, ds.Dim, WithSeed(26))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.SearchBatchWithStats(ds.Query(0)[:3], 5); err == nil {
		t.Fatal("bad block length accepted")
	}
	if _, err := ix.SearchBatchWithStats(ds.Query(0), 0); err == nil {
		t.Fatal("k=0 accepted")
	}
	// An empty batch is structurally fine.
	results, err := ix.SearchBatchWithStats(nil, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 0 {
		t.Fatalf("empty batch gave %d results", len(results))
	}
}

func TestStatsLifecycleCounters(t *testing.T) {
	ds := demoData(t)
	ix, err := Build(ds.Vectors, ds.Dim, WithSeed(27))
	if err != nil {
		t.Fatal(err)
	}
	st := ix.Stats()
	if st.BuildTime <= 0 {
		t.Fatalf("BuildTime = %v", st.BuildTime)
	}
	if st.Adds != 0 || st.MethodRebuilds != 0 {
		t.Fatalf("fresh index lifecycle: %+v", st)
	}
	for i := 0; i < 3; i++ {
		if _, err := ix.Add(ds.Query(0)); err != nil {
			t.Fatal(err)
		}
	}
	// The rebuild is lazy: it happens on the next search, once, however
	// many Adds preceded it.
	if _, err := ix.Search(ds.Query(1), 3, WithMaxCandidates(50)); err != nil {
		t.Fatal(err)
	}
	st = ix.Stats()
	if st.Adds != 3 {
		t.Fatalf("Adds = %d, want 3", st.Adds)
	}
	if st.MethodRebuilds != 1 {
		t.Fatalf("MethodRebuilds = %d, want 1", st.MethodRebuilds)
	}
}
