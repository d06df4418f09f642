package server

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"testing"

	"gqr"
)

// nullWriter is the least an http.ResponseWriter can be.
type nullWriter struct{ h http.Header }

func (w *nullWriter) Header() http.Header         { return w.h }
func (w *nullWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *nullWriter) WriteHeader(int)             {}

// benchHandler serves n random dim-dimensional vectors and returns the
// handler with nq marshalled request bodies of batch queries each
// (batch 1 is a /search body).
func benchHandler(b *testing.B, n, dim, nq, batch, maxCand int, opts ...gqr.Option) (*Handler, [][]byte) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	vecs := make([]float32, (n+nq*batch)*dim)
	for i := range vecs {
		vecs[i] = float32(rng.NormFloat64())
	}
	ix, err := gqr.Build(vecs[:n*dim], dim, append([]gqr.Option{gqr.WithSeed(2)}, opts...)...)
	if err != nil {
		b.Fatal(err)
	}
	queries := vecs[n*dim:]
	bodies := make([][]byte, nq)
	for i := range bodies {
		var body any
		if batch == 1 {
			body = SearchRequest{Query: queries[i*dim:][:dim], K: 10, MaxCandidates: maxCand}
		} else {
			br := BatchRequest{K: 10, MaxCandidates: maxCand}
			for j := 0; j < batch; j++ {
				br.Queries = append(br.Queries, queries[(i*batch+j)*dim:][:dim])
			}
			body = br
		}
		if bodies[i], err = json.Marshal(body); err != nil {
			b.Fatal(err)
		}
	}
	// The same handler type and level as gqr-server, so formatting the
	// request line is in the measured path.
	return New(ix, WithLogger(slog.New(slog.NewTextHandler(io.Discard, nil)))), bodies
}

func benchServe(b *testing.B, h *Handler, path string, bodies [][]byte) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req, _ := http.NewRequest(http.MethodPost, path, bytes.NewReader(bodies[i%len(bodies)]))
		h.ServeHTTP(&nullWriter{h: http.Header{}}, req)
	}
}

// BenchmarkServeSearch is one /search through the whole handler —
// middleware, codec, search, log line — without a network: the request
// shape of the benchmark's search-light workload.
func BenchmarkServeSearch(b *testing.B) {
	h, bodies := benchHandler(b, 20000, 32, 256, 1, 200)
	benchServe(b, h, "/search", bodies)
}

// BenchmarkServeBatch is one /batch of 32 queries at d=128, the request
// shape of the benchmark's batch-rerank workload.
func BenchmarkServeBatch(b *testing.B) {
	h, bodies := benchHandler(b, 10000, 128, 32, 32, 1000, gqr.WithReranking(16, 256, 8))
	benchServe(b, h, "/batch", bodies)
}
