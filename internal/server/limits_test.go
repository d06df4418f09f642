package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
)

// countingBody is a request body that counts what the handler read of
// it; endless bodies repeat their bytes forever.
type countingBody struct {
	data    []byte
	off     int
	endless bool
	read    int64
}

func (c *countingBody) Read(p []byte) (int, error) {
	if c.off == len(c.data) {
		if !c.endless || len(c.data) == 0 {
			return 0, io.EOF
		}
		c.off = 0
	}
	n := copy(p, c.data[c.off:])
	c.off += n
	c.read += int64(n)
	return n, nil
}

func (c *countingBody) Close() error { return nil }

// routeLimit is the request-body cap of the route a method and path
// select, for an index of dimension dim; 0 for routes that read no body.
func routeLimit(method, path string, dim int) int64 {
	switch {
	case path == "/batch" && method == http.MethodPost:
		return bodyLimit(dim) * maxBatchQueries
	case (path == "/search" || path == "/add") && method == http.MethodPost,
		strings.HasPrefix(path, "/vector/") && method == http.MethodPut:
		return bodyLimit(dim)
	}
	return 0
}

// TestBodyCap: a body past its route's cap is a 413 with the usual JSON
// error body, and the handler stops reading at the cap — it used to
// grow a []float32 for as long as the client kept sending components.
func TestBodyCap(t *testing.T) {
	h := goldenHandler(t)
	const dim = 4
	for _, c := range []struct{ method, path, opening string }{
		{"POST", "/search", `{"k":1,"query":[1`},
		{"POST", "/batch", `{"k":1,"queries":[[1`},
		{"POST", "/add", `{"vector":[1`},
		{"PUT", "/vector/1", `{"vector":[1`},
	} {
		limit := routeLimit(c.method, c.path, dim)
		// An endless vector, streamed without a Content-Length.
		body := &countingBody{data: []byte(",1"), endless: true}
		req := httptest.NewRequest(c.method, c.path, io.MultiReader(strings.NewReader(c.opening), body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		var reply map[string]string
		if rec.Code != http.StatusRequestEntityTooLarge || json.Unmarshal(rec.Body.Bytes(), &reply) != nil || reply["error"] == "" {
			t.Fatalf("%s %s: endless body gave %d %q", c.method, c.path, rec.Code, rec.Body)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("%s %s: 413 content type %q", c.method, c.path, ct)
		}
		if body.read > limit+1 {
			t.Fatalf("%s %s: handler read %d bytes of an endless body, cap %d", c.method, c.path, body.read, limit)
		}

		// A declared length at the cap is read; one byte more is not.
		pad := func(n int64) string { return c.opening + strings.Repeat(" ", int(n)-len(c.opening)) }
		if rec := serve(h, c.method, c.path, pad(limit)); rec.Code != http.StatusBadRequest {
			t.Fatalf("%s %s: a body of exactly the cap gave %d, want the decoder's 400", c.method, c.path, rec.Code)
		}
		if rec := serve(h, c.method, c.path, pad(limit+1)); rec.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s %s: a body one byte past the cap gave %d", c.method, c.path, rec.Code)
		}
	}
}

// TestBatchBound: maxBatchQueries queries are a batch; one more is a
// 400, whether the scanner or encoding/json decoded them.
func TestBatchBound(t *testing.T) {
	h := goldenHandler(t)
	batch := func(n int, key string) string {
		return `{` + key + `:[` + strings.TrimSuffix(strings.Repeat(`[1,2,3,4],`, n), ",") + `],"k":1,"maxCandidates":8}`
	}
	rec := serve(h, "POST", "/batch", batch(maxBatchQueries, `"queries"`))
	var ok BatchResponse
	if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &ok) != nil || len(ok.Results) != maxBatchQueries {
		t.Fatalf("a batch at the bound gave %d with %d results", rec.Code, len(ok.Results))
	}
	// "Queries" is encoding/json's to match, so the second body takes
	// the fallback.
	for _, key := range []string{`"queries"`, `"Queries"`} {
		rec := serve(h, "POST", "/batch", batch(maxBatchQueries+1, key))
		want := fmt.Sprintf(`{"error":"batch of %d queries exceeds the limit of %d"}`+"\n", maxBatchQueries+1, maxBatchQueries)
		if rec.Code != http.StatusBadRequest || rec.Body.String() != want {
			t.Fatalf("a batch past the bound under %s gave %d %q", key, rec.Code, rec.Body)
		}
	}
}

// TestEncodeFailureIs500: when a response has no JSON form nothing has
// been written yet, so the client gets a 500 with the usual error body
// (it used to get a 200 with no body) and the operator a log line.
func TestEncodeFailureIs500(t *testing.T) {
	var logged bytes.Buffer
	h := goldenHandler(t)
	h.log = slog.New(slog.NewTextHandler(&logged, nil))
	rec := httptest.NewRecorder()
	h.writeBody(rec, []byte(`{"neighbors":[{"id":1,"distance":`), errors.New("json: unsupported value: NaN"))
	if rec.Code != http.StatusInternalServerError || rec.Body.String() != `{"error":"json: unsupported value: NaN"}`+"\n" {
		t.Fatalf("encode failure gave %d %q", rec.Code, rec.Body)
	}
	if !strings.Contains(logged.String(), "response encode failed") {
		t.Fatalf("encode failure logged %q", logged.String())
	}
}

// TestBufferPoolBound: a buffer that grew past maxPooledBuffer is
// dropped, so one large /batch cannot pin its memory.
func TestBufferPoolBound(t *testing.T) {
	big := &buffer{b: make([]byte, 0, maxPooledBuffer+1)}
	putBuffer(big)
	for i := 0; i < 64; i++ {
		if got := getBuffer(); got == big {
			t.Fatal("an oversized buffer went back to the pool")
		}
	}
}

// TestSeriesCacheConcurrent drives distinct (method, path, code)
// triples from concurrent clients — more distinct methods than the
// cache holds — and checks every request was counted once: under -race
// this is the gate for the middleware's lock-free series cache.
func TestSeriesCacheConcurrent(t *testing.T) {
	h := goldenHandler(t)
	type triple struct {
		method, path, body string
		code               int
	}
	triples := []triple{
		{"POST", "/search", `{"query":[1,-2,3,0.5],"k":1}`, 200},
		{"POST", "/search", `{`, 400},
		{"GET", "/search", ``, 405},
		{"POST", "/batch", `{"queries":[[1,-2,3,0.5]],"k":1}`, 200},
		{"POST", "/batch", `{"queries":[[1,-2,3,0.5]]}`, 400},
		{"GET", "/stats", ``, 200},
		{"GET", "/healthz", ``, 200},
		{"DELETE", "/vector/xyz", ``, 400},
		{"PUT", "/vector/99999", `{"vector":[1,2,3,4]}`, 404},
		{"GET", "/nowhere", ``, 404},
	}
	// Methods of the client's own invention: one series each, most of
	// them past the cache's bound.
	const invented = maxCachedSeries + 40
	const workers, rounds = 4, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for _, tr := range triples {
					if rec := serve(h, tr.method, tr.path, tr.body); rec.Code != tr.code {
						t.Errorf("%s %s: status %d, want %d", tr.method, tr.path, rec.Code, tr.code)
						return
					}
				}
			}
			for m := w; m < invented; m += workers {
				serve(h, fmt.Sprintf("M%d", m), "/healthz", "")
				serve(h, fmt.Sprintf("M%d", m), "/healthz", "")
			}
		}(w)
	}
	wg.Wait()
	if n := len(*h.series.Load()); n > maxCachedSeries {
		t.Fatalf("the series cache holds %d entries, bound %d", n, maxCachedSeries)
	}
	samples := parseExposition(t, serve(h, "GET", "/metrics", "").Body.String())
	for _, tr := range triples {
		series := fmt.Sprintf(`gqr_http_requests_total{code="%d",method="%s",path="%s"}`, tr.code, tr.method, pathLabel(tr.path))
		if got := samples[series]; got != workers*rounds {
			t.Fatalf("%s = %v, want %d", series, got, workers*rounds)
		}
	}
	for m := 0; m < invented; m++ {
		series := fmt.Sprintf(`gqr_http_requests_total{code="200",method="M%d",path="/healthz"}`, m)
		if got := samples[series]; got != 2 {
			t.Fatalf("%s = %v, want 2", series, got)
		}
	}
	if got, want := samples[`gqr_http_request_seconds_count{path="/healthz"}`], float64(workers*rounds+2*invented); got != want {
		t.Fatalf("/healthz latency count = %v, want %v", got, want)
	}
}

// FuzzHandlers: whatever the method, path and body, the handler neither
// panics nor answers 5xx, reads no more of the body than the route's
// cap, and what it labels JSON is JSON.
func FuzzHandlers(f *testing.F) {
	for _, c := range goldenCases {
		f.Add(c.method, c.path, []byte(c.body), false)
	}
	f.Add("POST", "/search", []byte(`{"k":1,"query":[1,1`), true)
	f.Add("POST", "/batch", []byte(`{"queries":[[1,2,3,4],`), true)
	f.Add("PUT", "/vector/0", []byte(` `), true)
	var once sync.Once
	var h *Handler
	f.Fuzz(func(t *testing.T, method, path string, body []byte, endless bool) {
		// One index per fuzzing process: the writes that get through only
		// grow it, and no invariant here depends on what it holds.
		once.Do(func() { h = goldenHandler(t) })
		cb := &countingBody{data: body, endless: endless}
		req := &http.Request{
			Method: method, URL: &url.URL{Path: path}, Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
			Header: http.Header{}, Body: cb, ContentLength: -1, Host: "fuzz",
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code >= 500 {
			t.Fatalf("%q %q %q: status %d %q", method, path, body, rec.Code, rec.Body)
		}
		if limit := routeLimit(method, path, h.dim); cb.read > limit+1 {
			t.Fatalf("%q %q: read %d bytes of the body, cap %d", method, path, cb.read, limit)
		}
		if rec.Header().Get("Content-Type") == "application/json" && !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("%q %q %q: invalid JSON reply %q", method, path, body, rec.Body)
		}
	})
}
