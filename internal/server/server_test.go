package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"gqr"
	"gqr/internal/dataset"
	"gqr/internal/vecmath"
)

func testServer(t *testing.T) (*httptest.Server, *dataset.Dataset) {
	t.Helper()
	ds := dataset.Generate(dataset.GeneratorSpec{
		Name: "srv", N: 500, Dim: 12, Clusters: 4, LatentDim: 3, Seed: 81,
	})
	ds.SampleQueries(5, 82)
	ds.ComputeGroundTruth(5)
	ix, err := gqr.Build(ds.Vectors, ds.Dim, gqr.WithSeed(83))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(New(ix))
	t.Cleanup(srv.Close)
	return srv, ds
}

func post(t *testing.T, url string, body any, out any) *http.Response {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp
}

func TestSearchEndpointExact(t *testing.T) {
	srv, ds := testServer(t)
	for qi := 0; qi < ds.NQ(); qi++ {
		var out SearchResponse
		resp := post(t, srv.URL+"/search", SearchRequest{Query: ds.Query(qi), K: 5}, &out)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		if len(out.Neighbors) != 5 {
			t.Fatalf("%d neighbors", len(out.Neighbors))
		}
		for i, id := range ds.GroundTruth[qi] {
			if out.Neighbors[i].ID != int(id) {
				t.Fatalf("query %d: %v != ground truth %v", qi, out.Neighbors, ds.GroundTruth[qi])
			}
		}
	}
}

// TestSearchEndpointHugeK: a request body chooses k, so a k far beyond
// the index must be answered with every item at the cost of every item —
// it used to allocate 24 bytes per requested neighbour, or panic in the
// handler when that overflowed.
func TestSearchEndpointHugeK(t *testing.T) {
	srv, ds := testServer(t)
	for _, k := range []int{200_000_000, 1 << 50} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var out SearchResponse
		resp := post(t, srv.URL+"/search", SearchRequest{Query: ds.Query(0), K: k}, &out)
		runtime.ReadMemStats(&after)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("k=%d: status %d", k, resp.StatusCode)
		}
		if len(out.Neighbors) != ds.N() {
			t.Fatalf("k=%d: %d neighbors, the index holds %d", k, len(out.Neighbors), ds.N())
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
			t.Fatalf("k=%d: the round trip allocated %d bytes", k, got)
		}
	}
}

func TestSearchEndpointErrors(t *testing.T) {
	srv, ds := testServer(t)
	// Bad JSON.
	resp, err := http.Post(srv.URL+"/search", "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON gave status %d", resp.StatusCode)
	}
	// Wrong dim.
	r2 := post(t, srv.URL+"/search", SearchRequest{Query: ds.Query(0)[:3], K: 5}, nil)
	if r2.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad dim gave status %d", r2.StatusCode)
	}
	// K = 0.
	r3 := post(t, srv.URL+"/search", SearchRequest{Query: ds.Query(0), K: 0}, nil)
	if r3.StatusCode != http.StatusBadRequest {
		t.Fatalf("k=0 gave status %d", r3.StatusCode)
	}
	// GET not allowed.
	r4, err := http.Get(srv.URL + "/search")
	if err != nil {
		t.Fatal(err)
	}
	r4.Body.Close()
	if r4.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /search gave status %d", r4.StatusCode)
	}
}

func TestBatchEndpoint(t *testing.T) {
	srv, ds := testServer(t)
	req := BatchRequest{K: 3, MaxCandidates: 100}
	for qi := 0; qi < ds.NQ(); qi++ {
		req.Queries = append(req.Queries, ds.Query(qi))
	}
	var out BatchResponse
	resp := post(t, srv.URL+"/batch", req, &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if len(out.Results) != ds.NQ() {
		t.Fatalf("%d result lists", len(out.Results))
	}
	for _, entry := range out.Results {
		if entry.Error != "" {
			t.Fatalf("unexpected per-query error: %s", entry.Error)
		}
		if len(entry.Neighbors) != 3 {
			t.Fatalf("result list of %d", len(entry.Neighbors))
		}
	}
}

func TestBatchPerQueryErrors(t *testing.T) {
	srv, ds := testServer(t)
	// One ragged query must fail alone; the rest of the batch succeeds.
	req := BatchRequest{K: 3, Queries: [][]float32{ds.Query(0), ds.Query(1)[:4], ds.Query(2)}}
	var out BatchResponse
	resp := post(t, srv.URL+"/batch", req, &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mixed batch gave status %d, want 200", resp.StatusCode)
	}
	if len(out.Results) != 3 {
		t.Fatalf("%d results, want 3", len(out.Results))
	}
	for _, i := range []int{0, 2} {
		if out.Results[i].Error != "" || len(out.Results[i].Neighbors) != 3 {
			t.Fatalf("valid query %d: %+v", i, out.Results[i])
		}
	}
	if out.Results[1].Error == "" || len(out.Results[1].Neighbors) != 0 {
		t.Fatalf("ragged query got no error: %+v", out.Results[1])
	}
}

func TestAddEndpoint(t *testing.T) {
	srv, ds := testServer(t)
	var out AddResponse
	resp := post(t, srv.URL+"/add", AddRequest{Vector: ds.Query(0)}, &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if out.ID != ds.N() {
		t.Fatalf("new id %d, want %d", out.ID, ds.N())
	}
	// The added vector must now be the top hit for itself.
	var sr SearchResponse
	post(t, srv.URL+"/search", SearchRequest{Query: ds.Query(0), K: 1}, &sr)
	if sr.Neighbors[0].ID != out.ID || sr.Neighbors[0].Distance != 0 {
		t.Fatalf("added vector not found: %+v", sr.Neighbors)
	}
}

func TestStatsAndHealth(t *testing.T) {
	srv, ds := testServer(t)
	resp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st gqr.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Items != ds.N() || st.Algorithm != gqr.ITQ {
		t.Fatalf("stats = %+v", st)
	}
	h, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	h.Body.Close()
	if h.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", h.StatusCode)
	}
}

func TestRadiusViaAPI(t *testing.T) {
	srv, ds := testServer(t)
	// Radius so tight only the nearest item qualifies.
	var sr SearchResponse
	q := ds.Query(0)
	// First find the true nearest distance via an exact search.
	var exact SearchResponse
	post(t, srv.URL+"/search", SearchRequest{Query: q, K: 2}, &exact)
	r := (exact.Neighbors[0].Distance + exact.Neighbors[1].Distance) / 2
	post(t, srv.URL+"/search", SearchRequest{Query: q, K: 10, Radius: r}, &sr)
	if len(sr.Neighbors) != 1 || sr.Neighbors[0].ID != exact.Neighbors[0].ID {
		t.Fatalf("radius search via API wrong: %+v", sr.Neighbors)
	}
}

func TestMethodNotAllowedEverywhere(t *testing.T) {
	srv, _ := testServer(t)
	for _, path := range []string{"/batch", "/add"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("GET %s gave status %d", path, resp.StatusCode)
		}
	}
	resp, err := http.Post(srv.URL+"/stats", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /stats gave status %d", resp.StatusCode)
	}
}

func TestAddAndBatchBadJSON(t *testing.T) {
	srv, _ := testServer(t)
	for _, path := range []string{"/add", "/batch"} {
		resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader([]byte("{nope")))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad JSON to %s gave status %d", path, resp.StatusCode)
		}
	}
}

func TestAddWrongDim(t *testing.T) {
	srv, _ := testServer(t)
	resp := post(t, srv.URL+"/add", AddRequest{Vector: []float32{1, 2}}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("wrong-dim add gave status %d", resp.StatusCode)
	}
}

func TestBatchKZeroRejected(t *testing.T) {
	srv, ds := testServer(t)
	resp := post(t, srv.URL+"/batch", BatchRequest{Queries: [][]float32{ds.Query(0)}, K: 0}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("k=0 batch gave status %d", resp.StatusCode)
	}
}

// TestConcurrentAddSearchOverHTTP hammers /add, /search, /batch and the
// scrape endpoints from concurrent clients. With snapshot-based search
// the handlers share no locks on the query path; under -race this is
// the HTTP-level regression test for the Add-vs-search data race.
func TestConcurrentAddSearchOverHTTP(t *testing.T) {
	srv, ds := testServer(t)
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				var out SearchResponse
				resp := post(t, srv.URL+"/search", SearchRequest{Query: ds.Query((w + i) % ds.NQ()), K: 3}, &out)
				if resp.StatusCode != http.StatusOK {
					t.Errorf("search status %d", resp.StatusCode)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			resp := post(t, srv.URL+"/add", AddRequest{Vector: ds.Vector(i % ds.N())}, nil)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("add status %d", resp.StatusCode)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			var out BatchResponse
			resp := post(t, srv.URL+"/batch", BatchRequest{Queries: [][]float32{ds.Query(0), ds.Query(1)}, K: 3}, &out)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("batch status %d", resp.StatusCode)
				return
			}
			if r, err := http.Get(srv.URL + "/metrics"); err == nil {
				r.Body.Close()
			}
			if r, err := http.Get(srv.URL + "/stats"); err == nil {
				r.Body.Close()
			}
		}
	}()
	wg.Wait()
}

// do issues a request with an arbitrary method (DELETE, PUT) and an
// optional JSON body, decoding a JSON response into out on 200.
func do(t *testing.T, method, url string, body, out any) *http.Response {
	t.Helper()
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp
}

func TestDeleteVectorEndpoint(t *testing.T) {
	srv, ds := testServer(t)
	// Success: 204, and the item stops appearing in results.
	if resp := do(t, http.MethodDelete, srv.URL+"/vector/17", nil, nil); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete gave status %d", resp.StatusCode)
	}
	var out SearchResponse
	post(t, srv.URL+"/search", SearchRequest{Query: ds.Vector(17), K: 3}, &out)
	for _, nb := range out.Neighbors {
		if nb.ID == 17 {
			t.Fatal("deleted vector still returned by /search")
		}
	}
	// Double delete and unknown id: 404. Garbage id: 400.
	if resp := do(t, http.MethodDelete, srv.URL+"/vector/17", nil, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("double delete gave status %d", resp.StatusCode)
	}
	if resp := do(t, http.MethodDelete, srv.URL+"/vector/99999", nil, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown id gave status %d", resp.StatusCode)
	}
	if resp := do(t, http.MethodDelete, srv.URL+"/vector/xyz", nil, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage id gave status %d", resp.StatusCode)
	}
	// The route is method-scoped: GET on it is 405.
	if resp := do(t, http.MethodGet, srv.URL+"/vector/17", nil, nil); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /vector/{id} gave status %d", resp.StatusCode)
	}
}

func TestUpdateVectorEndpoint(t *testing.T) {
	srv, ds := testServer(t)
	// Wrong dimension: 409 Conflict, nothing applied.
	if resp := do(t, http.MethodPut, srv.URL+"/vector/3", UpdateRequest{Vector: ds.Vector(0)[:2]}, nil); resp.StatusCode != http.StatusConflict {
		t.Fatalf("wrong dim gave status %d", resp.StatusCode)
	}
	// Unknown id: 404.
	if resp := do(t, http.MethodPut, srv.URL+"/vector/99999", UpdateRequest{Vector: ds.Vector(0)}, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown id gave status %d", resp.StatusCode)
	}
	// Bad JSON: 400.
	req, _ := http.NewRequest(http.MethodPut, srv.URL+"/vector/3", bytes.NewReader([]byte("{")))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON gave status %d", resp.StatusCode)
	}
	// Success: the item moves to a fresh id and is found there.
	var upd UpdateResponse
	if resp := do(t, http.MethodPut, srv.URL+"/vector/3", UpdateRequest{Vector: ds.Query(0)}, &upd); resp.StatusCode != http.StatusOK {
		t.Fatalf("update gave status %d", resp.StatusCode)
	}
	if upd.ID != ds.N() {
		t.Fatalf("update returned id %d, want %d", upd.ID, ds.N())
	}
	var out SearchResponse
	post(t, srv.URL+"/search", SearchRequest{Query: ds.Query(0), K: 1}, &out)
	if len(out.Neighbors) != 1 || out.Neighbors[0].ID != upd.ID || out.Neighbors[0].Distance != 0 {
		t.Fatalf("updated vector not at its new id: %+v", out.Neighbors)
	}
	// The old id is gone: a second update of it is 404.
	if resp := do(t, http.MethodPut, srv.URL+"/vector/3", UpdateRequest{Vector: ds.Query(0)}, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("update of dead id gave status %d", resp.StatusCode)
	}
}

func TestSearchTagMaskParam(t *testing.T) {
	srv, ds := testServer(t)
	// One tagged vector in an untagged corpus: a masked search may only
	// ever return it.
	var added AddResponse
	if resp := post(t, srv.URL+"/add", AddRequest{Vector: ds.Query(0), Meta: 0b1000}, &added); resp.StatusCode != http.StatusOK {
		t.Fatalf("add gave status %d", resp.StatusCode)
	}
	var out SearchResponse
	if resp := post(t, srv.URL+"/search", SearchRequest{Query: ds.Query(0), K: 5, TagMask: 0b1000, IncludeStats: true}, &out); resp.StatusCode != http.StatusOK {
		t.Fatalf("masked search gave status %d", resp.StatusCode)
	}
	if len(out.Neighbors) != 1 || out.Neighbors[0].ID != added.ID || out.Neighbors[0].Distance != 0 {
		t.Fatalf("masked search: %+v, want only the tagged id %d", out.Neighbors, added.ID)
	}
	if out.Stats == nil || out.Stats.Filtered == 0 {
		t.Fatalf("masked search reported no filtered work: %+v", out.Stats)
	}
	// The same mask on /batch.
	var bout BatchResponse
	if resp := post(t, srv.URL+"/batch", BatchRequest{Queries: [][]float32{ds.Query(0)}, K: 5, TagMask: 0b1000}, &bout); resp.StatusCode != http.StatusOK {
		t.Fatalf("masked batch gave status %d", resp.StatusCode)
	}
	if len(bout.Results) != 1 || len(bout.Results[0].Neighbors) != 1 || bout.Results[0].Neighbors[0].ID != added.ID {
		t.Fatalf("masked batch: %+v", bout.Results)
	}
}

func TestStatszReportsLifecycle(t *testing.T) {
	srv, _ := testServer(t)
	if resp := do(t, http.MethodDelete, srv.URL+"/vector/0", nil, nil); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete gave status %d", resp.StatusCode)
	}
	resp, err := http.Get(srv.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var statsz struct {
		Kernel string    `json:"kernel"`
		Index  gqr.Stats `json:"index"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&statsz); err != nil {
		t.Fatal(err)
	}
	if statsz.Kernel == "" || statsz.Kernel != vecmath.Kernel() {
		t.Fatalf("statsz kernel = %q, the process runs %q", statsz.Kernel, vecmath.Kernel())
	}
	if statsz.Index.Tombstones != 1 || statsz.Index.Deletes != 1 {
		t.Fatalf("statsz tombstones=%d deletes=%d after one delete", statsz.Index.Tombstones, statsz.Index.Deletes)
	}
	if statsz.Index.LiveItems != statsz.Index.Items-1 {
		t.Fatalf("statsz live=%d items=%d", statsz.Index.LiveItems, statsz.Index.Items)
	}
	// The Prometheus view carries the same gauges.
	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"gqr_index_tombstones 1", "gqr_index_deletes 1"} {
		if !bytes.Contains(raw, []byte(want)) {
			t.Fatalf("/metrics missing %q", want)
		}
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
// fsync puts it in) and requires /batch and /search to answer anyway.
// Searches are lock-free on a published snapshot; what used to queue
// them here was asking Index.Stats, which takes that lock, for the
// immutable dimension on every request.
func TestSearchPathsNeverTakeWriterLock(t *testing.T) {
	srv, ds := testServer(t)
	ix := srv.Config.Handler.(*Handler).ix
	gw := &gateWriter{entered: make(chan struct{}), release: make(chan struct{})}
	saved := make(chan error, 1)
	go func() { saved <- ix.Save(gw) }()
	<-gw.entered // the writer lock is held from here until release

	done := make(chan struct{})
	go func() {
		defer close(done)
		var br BatchResponse
		if resp := post(t, srv.URL+"/batch", BatchRequest{Queries: [][]float32{ds.Query(0), ds.Query(1)}, K: 3}, &br); resp.StatusCode != http.StatusOK {
			t.Errorf("/batch status %d", resp.StatusCode)
		}
		var sr SearchResponse
		if resp := post(t, srv.URL+"/search", SearchRequest{Query: ds.Query(0), K: 3}, &sr); resp.StatusCode != http.StatusOK || len(sr.Neighbors) != 3 {
			t.Errorf("/search status %d, %d neighbors", resp.StatusCode, len(sr.Neighbors))
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
