package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"gqr"
	"gqr/internal/dataset"
)

// coalescingServer builds one server with request coalescing on (a
// window long enough that concurrent test requests reliably land in
// the same batch) and a second plain server over the SAME index, so
// tests can compare coalesced answers against the direct path.
func coalescingServer(t *testing.T, window time.Duration, maxBatch int) (coal, direct *httptest.Server, ds *dataset.Dataset) {
	t.Helper()
	ds = dataset.Generate(dataset.GeneratorSpec{
		Name: "coal", N: 500, Dim: 12, Clusters: 4, LatentDim: 3, Seed: 81,
	})
	ds.SampleQueries(8, 82)
	ix, err := gqr.Build(ds.Vectors, ds.Dim, gqr.WithSeed(83))
	if err != nil {
		t.Fatal(err)
	}
	coal = httptest.NewServer(New(ix, WithCoalescing(window, maxBatch)))
	t.Cleanup(coal.Close)
	direct = httptest.NewServer(New(ix))
	t.Cleanup(direct.Close)
	return coal, direct, ds
}

// TestCoalescedSearchMatchesDirect fires concurrent /search requests
// with identical parameters at a coalescing server and checks every
// answer against the direct (uncoalesced) path: coalescing must be
// invisible in the results — same neighbors, same stats counters —
// and visible only in the batch metrics.
func TestCoalescedSearchMatchesDirect(t *testing.T) {
	coal, direct, ds := coalescingServer(t, 50*time.Millisecond, 64)

	want := make([]SearchResponse, ds.NQ())
	for qi := range want {
		resp := post(t, direct.URL+"/search", SearchRequest{Query: ds.Query(qi), K: 5, IncludeStats: true}, &want[qi])
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("direct search status %d", resp.StatusCode)
		}
	}

	// Several rounds so at least one batch has more than one member.
	for round := 0; round < 3; round++ {
		got := make([]SearchResponse, ds.NQ())
		var wg sync.WaitGroup
		for qi := 0; qi < ds.NQ(); qi++ {
			wg.Add(1)
			go func(qi int) {
				defer wg.Done()
				resp := post(t, coal.URL+"/search", SearchRequest{Query: ds.Query(qi), K: 5, IncludeStats: true}, &got[qi])
				if resp.StatusCode != http.StatusOK {
					t.Errorf("coalesced search status %d", resp.StatusCode)
				}
			}(qi)
		}
		wg.Wait()
		for qi := range got {
			// Timings legitimately differ; the work counters must not.
			gs, ws := got[qi].Stats, want[qi].Stats
			if gs == nil || ws == nil {
				t.Fatalf("query %d: missing stats (got %v, want %v)", qi, gs, ws)
			}
			gst, wst := *gs, *ws
			gst.RetrievalTime, gst.EvaluationTime = 0, 0
			wst.RetrievalTime, wst.EvaluationTime = 0, 0
			if !reflect.DeepEqual(got[qi].Neighbors, want[qi].Neighbors) {
				t.Fatalf("round %d query %d: coalesced neighbors %v != direct %v", round, qi, got[qi].Neighbors, want[qi].Neighbors)
			}
			if gst != wst {
				t.Fatalf("round %d query %d: coalesced stats %+v != direct %+v", round, qi, gst, wst)
			}
		}
	}

	// The coalescer must have executed batches and recorded their sizes.
	var statsz struct {
		Search SearchTotals `json:"search"`
	}
	resp, err := http.Get(coal.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&statsz); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if statsz.Search.Batches == 0 {
		t.Fatal("/statsz reports zero batches after coalesced searches")
	}
	// 3 coalesced rounds; the direct server has its own registry.
	if statsz.Search.Queries != int64(3*ds.NQ()) {
		t.Fatalf("/statsz queries = %d, want %d", statsz.Search.Queries, 3*ds.NQ())
	}
	mresp, err := http.Get(coal.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"gqr_search_batches_total", "gqr_search_batch_size_count"} {
		if !bytes.Contains(raw, []byte(want)) {
			t.Fatalf("/metrics missing %q", want)
		}
	}
}

// TestCoalescedDifferentParamsDontMix issues concurrent requests with
// two different k values; each must get results for its own k (the
// batch key separates them).
func TestCoalescedDifferentParamsDontMix(t *testing.T) {
	coal, _, ds := coalescingServer(t, 30*time.Millisecond, 64)
	var wg sync.WaitGroup
	for qi := 0; qi < ds.NQ(); qi++ {
		wg.Add(1)
		go func(qi int) {
			defer wg.Done()
			k := 3 + (qi%2)*4 // k=3 or k=7
			var out SearchResponse
			resp := post(t, coal.URL+"/search", SearchRequest{Query: ds.Query(qi), K: k}, &out)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("status %d", resp.StatusCode)
				return
			}
			if len(out.Neighbors) != k {
				t.Errorf("query %d: %d neighbors, want %d", qi, len(out.Neighbors), k)
			}
		}(qi)
	}
	wg.Wait()
}

// TestCoalescedBatchFull checks the full-batch inline flush: maxBatch
// sequential-parameter requests with a long window must all return
// well before the window expires.
func TestCoalescedBatchFull(t *testing.T) {
	coal, _, ds := coalescingServer(t, 10*time.Second, 4)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var out SearchResponse
			resp := post(t, coal.URL+"/search", SearchRequest{Query: ds.Query(i), K: 3}, &out)
			if resp.StatusCode != http.StatusOK || len(out.Neighbors) != 3 {
				t.Errorf("request %d: status %d, %d neighbors", i, resp.StatusCode, len(out.Neighbors))
			}
		}(i)
	}
	wg.Wait()
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("full batch took %v; inline flush did not fire before the 10s window", elapsed)
	}
}

// TestCoalescingRejectsMalformed ensures validation still happens on
// the request path: bad dimension and k<=0 are 400s, not enqueued.
func TestCoalescingRejectsMalformed(t *testing.T) {
	coal, _, ds := coalescingServer(t, 20*time.Millisecond, 64)
	if resp := post(t, coal.URL+"/search", SearchRequest{Query: ds.Query(0)[:3], K: 5}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad dim gave status %d", resp.StatusCode)
	}
	if resp := post(t, coal.URL+"/search", SearchRequest{Query: ds.Query(0), K: 0}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("k=0 gave status %d", resp.StatusCode)
	}
}

// TestBatchEndpointAggregateStats checks the /batch Batch summary:
// answered/failed counts, summed work counters, and slowest-query
// attribution when stats are requested.
func TestBatchEndpointAggregateStats(t *testing.T) {
	srv, ds := testServer(t)
	req := BatchRequest{K: 3, IncludeStats: true}
	for qi := 0; qi < ds.NQ(); qi++ {
		req.Queries = append(req.Queries, ds.Query(qi))
	}
	req.Queries = append(req.Queries, ds.Query(0)[:4]) // one ragged query
	var out BatchResponse
	if resp := post(t, srv.URL+"/batch", req, &out); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if out.Batch == nil {
		t.Fatal("no batch summary in response")
	}
	if out.Batch.Answered != ds.NQ() || out.Batch.Failed != 1 {
		t.Fatalf("answered=%d failed=%d, want %d/1", out.Batch.Answered, out.Batch.Failed, ds.NQ())
	}
	var sumCand int
	for _, entry := range out.Results[:ds.NQ()] {
		if entry.Stats == nil {
			t.Fatal("missing per-query stats despite includeStats")
		}
		sumCand += entry.Stats.Candidates
	}
	if out.Batch.Stats.Candidates != sumCand {
		t.Fatalf("summed candidates %d != aggregate %d", sumCand, out.Batch.Stats.Candidates)
	}
	if out.Batch.SlowestQuery < 0 || out.Batch.SlowestQuery >= ds.NQ() {
		t.Fatalf("slowest query index %d out of range", out.Batch.SlowestQuery)
	}
	// Without includeStats the summary still counts, but cannot name a
	// slowest query.
	req.IncludeStats = false
	var plain BatchResponse
	if resp := post(t, srv.URL+"/batch", req, &plain); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if plain.Batch == nil || plain.Batch.SlowestQuery != -1 {
		t.Fatalf("plain batch summary = %+v, want SlowestQuery=-1", plain.Batch)
	}
}

// noDeadline hides a context's deadline from the coalescer (so the
// window is not shrunk to it) while keeping its Done and Err: the shape
// of a request whose time ran out while it waited for its batch.
type noDeadline struct{ context.Context }

func (noDeadline) Deadline() (time.Time, bool) { return time.Time{}, false }

// TestCoalescedWaiterContextEnds covers a waiter whose context ends
// before its batch flushes. Neither outcome is the client's fault, so
// neither is a 400: a passed deadline is answered 503, and a client that
// hung up is written nothing at all.
func TestCoalescedWaiterContextEnds(t *testing.T) {
	ds := dataset.Generate(dataset.GeneratorSpec{
		Name: "coal", N: 300, Dim: 12, Clusters: 4, LatentDim: 3, Seed: 81,
	})
	ds.SampleQueries(1, 82)
	ix, err := gqr.Build(ds.Vectors, ds.Dim, gqr.WithSeed(83))
	if err != nil {
		t.Fatal(err)
	}
	// A window no test outlives: only the context can end the wait.
	h := New(ix, WithCoalescing(time.Hour, 64))
	body, err := json.Marshal(SearchRequest{Query: ds.Query(0), K: 3})
	if err != nil {
		t.Fatal(err)
	}
	serve := func(ctx context.Context) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/search", bytes.NewReader(body)).WithContext(ctx))
		return rec
	}

	expired, cancelExpired := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancelExpired()
	if rec := serve(noDeadline{expired}); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("deadline exceeded while waiting: status %d, want 503 (body %q)", rec.Code, rec.Body)
	}

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if rec := serve(canceled); rec.Body.Len() != 0 || len(rec.Header()) != 0 {
		t.Fatalf("client gone while waiting: wrote headers %v body %q, want nothing", rec.Header(), rec.Body)
	}
}

// gateWriter blocks every Write until released, reporting the first.
type gateWriter struct {
	entered, release chan struct{}
	once             sync.Once
}

func (g *gateWriter) Write(p []byte) (int, error) {
	g.once.Do(func() { close(g.entered) })
	<-g.release
	return len(p), nil
}

// TestSearchPathsNeverTakeWriterLock holds the index's writer lock (a
// Save into a writer that does not drain — the position an Add's WAL
// fsync puts it in) and requires /batch and a coalesced /search to
// answer anyway. Searches are lock-free on a published snapshot; what
// used to queue them here was asking Index.Stats, which takes that
// lock, for the immutable dimension on every request.
func TestSearchPathsNeverTakeWriterLock(t *testing.T) {
	coal, _, ds := coalescingServer(t, time.Millisecond, 64)
	ix := coal.Config.Handler.(*Handler).ix
	gw := &gateWriter{entered: make(chan struct{}), release: make(chan struct{})}
	saved := make(chan error, 1)
	go func() { saved <- ix.Save(gw) }()
	<-gw.entered // the writer lock is held from here until release

	done := make(chan struct{})
	go func() {
		defer close(done)
		var br BatchResponse
		if resp := post(t, coal.URL+"/batch", BatchRequest{Queries: [][]float32{ds.Query(0), ds.Query(1)}, K: 3}, &br); resp.StatusCode != http.StatusOK {
			t.Errorf("/batch status %d", resp.StatusCode)
		}
		var sr SearchResponse
		if resp := post(t, coal.URL+"/search", SearchRequest{Query: ds.Query(0), K: 3}, &sr); resp.StatusCode != http.StatusOK || len(sr.Neighbors) != 3 {
			t.Errorf("coalesced /search status %d, %d neighbors", resp.StatusCode, len(sr.Neighbors))
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Error("a search request queued behind the writer lock")
	}
	close(gw.release)
	if err := <-saved; err != nil {
		t.Fatal(err)
	}
	<-done
}
