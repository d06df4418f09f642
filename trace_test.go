package gqr

import (
	"bytes"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"gqr/internal/trace"
)

// TestTraceStatsAcrossMethods verifies, for every querying method,
// that a traced query's flight record reconciles with its SearchStats:
// stage durations are non-negative and sum to (at most) the total, the
// span work counters add up to the §2.2 counters, and the profile
// times are derived from the very same stage clock.
func TestTraceStatsAcrossMethods(t *testing.T) {
	ds := demoData(t)
	for _, method := range []QueryMethod{HR, QR, GHR, GQR, MIH} {
		ix, err := Build(ds.Vectors, ds.Dim,
			WithQueryMethod(method), WithSeed(31), WithTracing(1))
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		rec := ix.TraceRecorder()
		if rec == nil {
			t.Fatalf("%s: tracing enabled but no recorder", method)
		}
		for qi := 0; qi < ds.NQ(); qi++ {
			_, st, err := ix.SearchWithStats(ds.Query(qi), 5, WithMaxCandidates(100), WithProfile())
			if err != nil {
				t.Fatalf("%s: %v", method, err)
			}
			traces := rec.Traces()
			if len(traces) == 0 {
				t.Fatalf("%s: no trace captured", method)
			}
			tr := traces[0] // newest first
			if tr.Method != string(method) {
				t.Fatalf("trace method %q, want %q", tr.Method, method)
			}
			if tr.Total <= 0 {
				t.Fatalf("%s: total %v", method, tr.Total)
			}
			for i := 0; i < trace.NumStages; i++ {
				if tr.StageDur[i] < 0 {
					t.Fatalf("%s: stage %s duration %v < 0", method, trace.Stage(i), tr.StageDur[i])
				}
			}
			if sum := tr.StageSum(); sum <= 0 || sum > tr.Total {
				t.Fatalf("%s: stage sum %v outside (0, total %v]", method, sum, tr.Total)
			}
			// Span work counters reconcile with the search's stats.
			if got := int(tr.StageWork[trace.StageProbe].Buckets); got != st.BucketsGenerated {
				t.Fatalf("%s: probe-span buckets %d != generated %d", method, got, st.BucketsGenerated)
			}
			if got := int(tr.StageWork[trace.StageProbe].Probed); got != st.BucketsProbed {
				t.Fatalf("%s: probe-span probed %d != %d", method, got, st.BucketsProbed)
			}
			if got := int(tr.StageWork[trace.StageGather].Candidates); got != st.Candidates {
				t.Fatalf("%s: gather-span candidates %d != %d", method, got, st.Candidates)
			}
			if got := int(tr.StageWork[trace.StageEvaluate].Abandoned); got != st.EarlyAbandoned {
				t.Fatalf("%s: evaluate-span abandoned %d != %d", method, got, st.EarlyAbandoned)
			}
			// Totals copied from the final stats.
			want := trace.Totals{
				K: 5, Budget: 100,
				BucketsGenerated: st.BucketsGenerated,
				BucketsProbed:    st.BucketsProbed,
				Candidates:       st.Candidates,
				EarlyAbandoned:   st.EarlyAbandoned,
				EarlyStopped:     st.EarlyStopped,
			}
			if tr.Totals != want {
				t.Fatalf("%s: trace totals %+v != %+v", method, tr.Totals, want)
			}
			// Satellite: Profile times come from the same stage clock.
			if st.RetrievalTime != tr.StageDur[trace.StageSequence]+tr.StageDur[trace.StageProbe] {
				t.Fatalf("%s: retrieval %v != sequence+probe %v", method,
					st.RetrievalTime, tr.StageDur[trace.StageSequence]+tr.StageDur[trace.StageProbe])
			}
			if st.EvaluationTime != tr.StageDur[trace.StageGather]+tr.StageDur[trace.StageEvaluate] {
				t.Fatalf("%s: evaluation %v != gather+evaluate %v", method,
					st.EvaluationTime, tr.StageDur[trace.StageGather]+tr.StageDur[trace.StageEvaluate])
			}
			// Pipeline spans: snapshot and preprocess marks exist.
			if tr.StageCount[trace.StageSnapshot] != 1 || tr.StageCount[trace.StagePreprocess] != 1 {
				t.Fatalf("%s: snapshot/preprocess counts %d/%d", method,
					tr.StageCount[trace.StageSnapshot], tr.StageCount[trace.StagePreprocess])
			}
		}
		st := rec.Stats()
		if st.Queries != uint64(ds.NQ()) || st.Captured != uint64(ds.NQ()) {
			t.Fatalf("%s: recorder %+v, want %d queries all captured", method, st, ds.NQ())
		}
	}
}

// spanGrammar is the flight record of one query as the pipeline is
// allowed to write it: the facade's marks, then the searcher's stages in
// the only order the driver can produce them. Batch members carry no
// snapshot span (the batch captured one snapshot for all of them).
var spanGrammar = regexp.MustCompile(
	`^(snapshot )?preprocess sequence (rerank )?(probe gather (rerank|evaluate) )*probe (rerank evaluate )?finalize $`)

// checkSpanGrammar asserts one captured trace's stage sequence matches
// spanGrammar and that its per-stage work annotations add up to the
// query's totals, which are the search's final SearchStats counters.
func checkSpanGrammar(t *testing.T, label string, tr *trace.Trace, rerank bool) {
	t.Helper()
	if tr.Dropped != 0 {
		t.Fatalf("%s: %d spans dropped; the grammar needs the whole timeline", label, tr.Dropped)
	}
	var sb strings.Builder
	for _, sp := range tr.Spans {
		sb.WriteString(sp.Stage.String())
		sb.WriteByte(' ')
	}
	seq := sb.String()
	if !spanGrammar.MatchString(seq) {
		t.Fatalf("%s: stage sequence %q does not match the pipeline grammar", label, seq)
	}
	if got := strings.Contains(seq, "rerank"); got != rerank {
		t.Fatalf("%s: rerank spans present = %v, want %v (%q)", label, got, rerank, seq)
	}
	w, tot := &tr.StageWork, tr.Totals
	sums := []struct {
		name      string
		got, want int
	}{
		{"probe.buckets", int(w[trace.StageProbe].Buckets), tot.BucketsGenerated},
		{"probe.probed", int(w[trace.StageProbe].Probed), tot.BucketsProbed},
		{"gather.candidates", int(w[trace.StageGather].Candidates), tot.Candidates},
		{"gather.filtered", int(w[trace.StageGather].Filtered), tot.Filtered},
		{"rerank.adcScored", int(w[trace.StageRerank].ADCScored), tot.ADCScored},
		{"evaluate.candidates", int(w[trace.StageEvaluate].Candidates), tot.Reranked},
		{"evaluate.abandoned", int(w[trace.StageEvaluate].Abandoned), tot.EarlyAbandoned},
	}
	for _, c := range sums {
		if c.got != c.want {
			t.Fatalf("%s: span work %s sums to %d, totals say %d", label, c.name, c.got, c.want)
		}
	}
}

// TestTraceSpanGrammar pins the flight record's shape for every method
// and every pipeline variant — plain, re-ranked, filtered (pending
// tombstones + tag mask + predicate) and batch member: the stage
// sequence matches spanGrammar and the span work annotations reconcile
// with SearchStats.
func TestTraceSpanGrammar(t *testing.T) {
	ds := demoData(t)
	flat := flatQueries(ds)
	const k = 5
	for _, method := range []QueryMethod{HR, QR, GHR, GQR, MIH} {
		for _, rerank := range []bool{false, true} {
			opts := []Option{WithQueryMethod(method), WithSeed(33), WithTracing(1), WithTraceBuffer(64)}
			if rerank {
				opts = append(opts, WithReranking(0, 0, 0))
			}
			ix, err := Build(ds.Vectors, ds.Dim, opts...)
			if err != nil {
				t.Fatalf("%s: %v", method, err)
			}
			meta := make([]uint64, ds.N())
			for i := range meta {
				meta[i] = uint64(i % 2)
			}
			if err := ix.SetMetadata(meta); err != nil {
				t.Fatal(err)
			}
			rec := ix.TraceRecorder()
			single := func(variant string, sopts ...SearchOption) {
				for qi := 0; qi < ds.NQ(); qi++ {
					label := string(method) + "/" + variant
					_, st, err := ix.SearchWithStats(ds.Query(qi), k, sopts...)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					tr := rec.Traces()[0] // newest first
					if tr.Totals != totalsOf(k, searchConfig{maxCandidates: 100}, st) {
						t.Fatalf("%s: trace totals %+v are not the search's stats %+v", label, tr.Totals, st)
					}
					if variant == "filtered" && st.Filtered == 0 {
						t.Fatalf("%s: nothing was filtered", label)
					}
					checkSpanGrammar(t, label, tr, rerank)
					// The frontier's high-water mark rides on the probe
					// stage: GQR holds one, at most a node per emission
					// and v^r; no other method has one to report.
					fr := int(tr.StageWork[trace.StageProbe].Frontier)
					if method != GQR && fr != 0 {
						t.Fatalf("%s: frontier of %d nodes reported", label, fr)
					}
					if method == GQR && (fr < 1 || fr > st.BucketsGenerated+1) {
						t.Fatalf("%s: frontier of %d nodes after %d buckets", label, fr, st.BucketsGenerated)
					}
				}
			}
			single("plain", WithMaxCandidates(100))

			before := rec.Stats().Captured
			results, err := ix.SearchBatchWithStats(flat, k, WithMaxCandidates(100))
			if err != nil {
				t.Fatal(err)
			}
			members := 0
			for _, tr := range rec.Traces() {
				if tr.ID <= before || tr.Method == "batch" {
					continue
				}
				members++
				checkSpanGrammar(t, string(method)+"/batch", tr, rerank)
			}
			if members != len(results) {
				t.Fatalf("%s: %d batch-member traces for %d queries", method, members, len(results))
			}

			// Pending tombstones switch the gather stage to its filtering
			// loop; the mask and predicate ride the same loop.
			for id := 5; id < ds.N(); id += 37 {
				if err := ix.Delete(id); err != nil {
					t.Fatal(err)
				}
			}
			single("filtered", WithMaxCandidates(100), WithTagMask(1),
				WithFilter(func(id int, _ uint64) bool { return id%3 != 0 }))
		}
	}
}

// TestTraceBatchAndChromeExport checks that batch searches trace each
// query individually — one record per batch query and no "batch"
// record, since a batch has no shared work of its own — and the
// captured set exports as Chrome JSON.
func TestTraceBatchAndChromeExport(t *testing.T) {
	ds := demoData(t)
	ix, err := Build(ds.Vectors, ds.Dim, WithSeed(32), WithTracing(1), WithTraceBuffer(128))
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
	for qi, r := range results {
		if r.Err != nil {
			t.Fatalf("query %d: %v", qi, r.Err)
		}
	}
	rec := ix.TraceRecorder()
	if got := rec.Stats().Captured; got != uint64(ds.NQ()) {
		t.Fatalf("captured %d traces, want one per batch query (%d)", got, ds.NQ())
	}
	for _, tr := range rec.Traces() {
		if tr.Method == "batch" || tr.StageCount[trace.StageBatch] != 0 {
			t.Fatalf("captured a batch record (method %q, %d batch spans)", tr.Method, tr.StageCount[trace.StageBatch])
		}
	}
	var buf bytes.Buffer
	if err := trace.WriteChrome(&buf, rec.Traces()...); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 || buf.Bytes()[0] != '{' {
		t.Fatalf("chrome export looks wrong: %q", buf.String()[:min(buf.Len(), 40)])
	}
}

// TestLoadWithTracingOptions checks that a restored index can be
// equipped with a flight recorder at load time.
func TestLoadWithTracingOptions(t *testing.T) {
	ds := demoData(t)
	ix, err := Build(ds.Vectors, ds.Dim, WithSeed(34))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf, ds.Vectors, ds.Dim, WithTracing(1))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.TraceRecorder() == nil {
		t.Fatal("loaded index has no recorder despite WithTracing")
	}
	if _, _, err := loaded.SearchWithStats(ds.Query(0), 5, WithMaxCandidates(50)); err != nil {
		t.Fatal(err)
	}
	if got := loaded.TraceRecorder().Stats().Captured; got != 1 {
		t.Fatalf("captured %d traces after one query", got)
	}
}

// TestPublicSearchAllocs is the disabled-path allocation gate at the
// public API: with tracing off, a warmed SearchWithStats allocates only
// its result slices (the trace plumbing must stay allocation-free).
func TestPublicSearchAllocs(t *testing.T) {
	if raceEnabled {
		// The race runtime randomly drops sync.Pool puts (to surface
		// reuse races), so the pooled searcher scratch re-allocates
		// nondeterministically and AllocsPerRun is meaningless here.
		t.Skip("allocation counts are nondeterministic under -race")
	}
	ds := demoData(t)
	ix, err := Build(ds.Vectors, ds.Dim, WithSeed(35))
	if err != nil {
		t.Fatal(err)
	}
	q := ds.Query(0)
	// Warm the snapshot pool's searcher scratch.
	for i := 0; i < 3; i++ {
		if _, _, err := ix.SearchWithStats(q, 10, WithMaxCandidates(1000)); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, _, err := ix.SearchWithStats(q, 10, WithMaxCandidates(1000)); err != nil {
			t.Fatal(err)
		}
	})
	const budget = 4
	if allocs > budget {
		t.Fatalf("SearchWithStats allocs/op = %.1f, budget %d", allocs, budget)
	}
}

// TestTraceStressRoot races traced searches, Adds and recorder readers
// — the root-level -race exercise behind `make trace-stress`.
func TestTraceStressRoot(t *testing.T) {
	ds := demoData(t)
	ix, err := Build(ds.Vectors, ds.Dim, WithSeed(36),
		WithTracing(2), WithSlowQueryThreshold(time.Nanosecond), WithTraceBuffer(8))
	if err != nil {
		t.Fatal(err)
	}
	const workers, perWorker = 4, 100
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				q := ds.Query((w + i) % ds.NQ())
				if _, _, err := ix.SearchWithStats(q, 3, WithMaxCandidates(60)); err != nil {
					t.Error(err)
					return
				}
				if i%10 == 0 {
					if _, err := ix.Add(q); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		var sink bytes.Buffer
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, tr := range ix.TraceRecorder().Traces() {
				_ = tr.Summary()
			}
			sink.Reset()
			_ = trace.WriteChrome(&sink, ix.TraceRecorder().Traces()...)
		}
	}()
	// Writers finish, then the reader is told to stop.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		st := ix.TraceRecorder().Stats()
		if st.Queries >= workers*perWorker {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	<-done
	st := ix.TraceRecorder().Stats()
	if st.Queries != workers*perWorker || st.Captured == 0 {
		t.Fatalf("recorder %+v after stress", st)
	}
}
