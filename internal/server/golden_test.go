package server

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"gqr"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from this tree's responses")

// goldenCase is one request of the pinned sequence. The cases run in
// order against one handler, so the ids the writes return are fixed.
type goldenCase struct {
	name, method, path, body string
}

// goldenCases covers the four body-carrying routes on their success
// paths and every 4xx body a handler of this package writes (the mux's
// own plain-text 404/405 are net/http's bytes, not ours). The index is
// four-dimensional with 200 items; see goldenHandler.
var goldenCases = []goldenCase{
	{"search", "POST", "/search", `{"query":[1,-2,3,0.5],"k":3}`},
	{"search-whitespace-and-order", "POST", "/search", " {\n\t\"k\" : 2 , \"maxCandidates\":50,\"query\" : [ 1e0, -2.0 ,3 , 5E-1 ]\r\n} trailing"},
	{"search-exact-hit", "POST", "/search", `{"query":[7,6,0,6],"k":2,"maxBuckets":4,"earlyStop":true,"tagMask":0}`},
	{"search-no-neighbors", "POST", "/search", `{"query":[0.25,0.25,0.25,0.25],"k":3,"radius":0.001}`},
	{"search-stats", "POST", "/search", `{"query":[1,-2,3,0.5],"k":3,"maxCandidates":50,"includeStats":true}`},
	{"search-unknown-key", "POST", "/search", `{"query":[1,-2,3,0.5],"k":1,"note":"ignored"}`},
	{"search-escaped-key", "POST", "/search", `{"query":[1,-2,3,0.5],"\u006b":1}`},
	{"search-duplicate-key", "POST", "/search", `{"k":9,"query":[0,0,0,0],"query":[1,-2,3,0.5],"k":1}`},
	{"batch-ragged", "POST", "/batch", `{"queries":[[1,2,3],[1,-2,3,0.5],[0,0,0,0]],"k":2}`},
	// One answered query only: which of two was slowest is a clock reading.
	{"batch-stats", "POST", "/batch", `{"queries":[[1,-2,3,0.5],[]],"k":2,"maxCandidates":40,"includeStats":true}`},
	{"batch-empty", "POST", "/batch", `{"queries":[],"k":2}`},
	{"batch-null-queries", "POST", "/batch", `{"queries":null,"k":2}`},
	{"add", "POST", "/add", `{"vector":[1,2,3,4],"meta":5}`},
	{"add-no-meta", "POST", "/add", `{"vector":[-1.5,2.25,3e1,4]}`},
	{"put", "PUT", "/vector/3", `{"vector":[4,3,2,1]}`},
	{"search-zero-distance", "POST", "/search", `{"query":[1,2,3,4],"k":2}`},
	{"search-tiny-distance", "POST", "/search", `{"query":[1,2,3,4.0000005],"k":1}`},
	{"search-huge-distance", "POST", "/search", `{"query":[1e19,-1e19,0,0],"k":1}`},
	{"search-exponent-distance", "POST", "/search", `{"query":[1e30,0,0,-3e38],"k":1}`},
	{"delete", "DELETE", "/vector/5", ""},

	{"search-get", "GET", "/search", ""},
	{"search-empty-body", "POST", "/search", ""},
	{"search-truncated", "POST", "/search", `{"query":[1,-2,3`},
	{"search-syntax", "POST", "/search", `{"query":[1,-2,3,],"k":3}`},
	{"search-leading-zero", "POST", "/search", `{"query":[01,-2,3,4],"k":3}`},
	{"search-string-query", "POST", "/search", `{"query":"x","k":3}`},
	{"search-float-overflow", "POST", "/search", `{"query":[1e40,0,0,0],"k":3}`},
	{"search-fractional-k", "POST", "/search", `{"query":[1,-2,3,0.5],"k":3.5}`},
	{"search-negative-tagmask", "POST", "/search", `{"query":[1,-2,3,0.5],"k":3,"tagMask":-1}`},
	{"search-array-body", "POST", "/search", `[1,2,3]`},
	{"search-wrong-dim", "POST", "/search", `{"query":[1,2,3],"k":3}`},
	{"search-k-zero", "POST", "/search", `{"query":[1,-2,3,0.5]}`},
	{"search-null-query", "POST", "/search", `{"query":null,"k":1}`},
	{"batch-get", "GET", "/batch", ""},
	{"batch-bad-json", "POST", "/batch", `{"queries":[[1,2],"k":2}`},
	{"batch-flat-queries", "POST", "/batch", `{"queries":[1,2,3,4],"k":2}`},
	{"batch-k-zero", "POST", "/batch", `{"queries":[[1,-2,3,0.5]],"k":0}`},
	{"add-get", "GET", "/add", ""},
	{"add-bad-json", "POST", "/add", `{nope`},
	{"add-wrong-dim", "POST", "/add", `{"vector":[1,2]}`},
	{"add-negative-meta", "POST", "/add", `{"vector":[1,2,3,4],"meta":-1}`},
	{"put-bad-id", "PUT", "/vector/xyz", `{"vector":[4,3,2,1]}`},
	{"put-bad-json", "PUT", "/vector/4", `{`},
	{"put-unknown-id", "PUT", "/vector/99999", `{"vector":[4,3,2,1]}`},
	{"put-dead-id", "PUT", "/vector/3", `{"vector":[4,3,2,1]}`},
	{"put-wrong-dim", "PUT", "/vector/4", `{"vector":[4,3]}`},
	{"delete-bad-id", "DELETE", "/vector/xyz", ""},
	{"delete-unknown-id", "DELETE", "/vector/99999", ""},
	{"delete-twice", "DELETE", "/vector/5", ""},
	{"stats-post", "POST", "/stats", ""},
	{"metrics-post", "POST", "/metrics", ""},
	{"statsz-post", "POST", "/statsz", ""},
	{"querytrace-post", "POST", "/debug/querytrace", ""},
	{"querytrace-disabled", "GET", "/debug/querytrace", ""},
}

// goldenHandler serves a small index of integer-valued vectors: every
// squared distance is then exact in float32 whatever the kernel sums
// it with, so the pinned bytes do not depend on the host.
func goldenHandler(tb testing.TB) *Handler {
	tb.Helper()
	const n, dim = 200, 4
	rng := rand.New(rand.NewSource(7))
	vecs := make([]float32, n*dim)
	for i := range vecs {
		vecs[i] = float32(rng.Intn(17) - 8)
	}
	ix, err := gqr.Build(vecs, dim, gqr.WithSeed(3), gqr.WithBuildParallelism(1))
	if err != nil {
		tb.Fatal(err)
	}
	return New(ix, WithLogger(slog.New(slog.NewTextHandler(io.Discard, nil))))
}

func serve(h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
	return rec
}

// The only response fields that are clock readings.
var clockFields = regexp.MustCompile(`"(retrievalTime|evaluationTime|slowestQueryTimeNs)":\d+`)

// The only /metrics samples that are clock readings: the buckets and
// sums of the duration histograms, and the build-time gauges.
var clockSamples = regexp.MustCompile(`(?m)^(gqr_\w+_seconds(?:_bucket|_sum)?(?:\{.*\})?) \S+$`)

// checkGolden compares got with testdata/name, or rewrites the file
// under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range gl {
		if i >= len(wl) || gl[i] != wl[i] {
			w := "<end of file>"
			if i < len(wl) {
				w = wl[i]
			}
			t.Fatalf("%s line %d:\n got %s\nwant %s", path, i+1, gl[i], w)
		}
	}
	t.Fatalf("%s: got %d lines, want %d", path, len(gl), len(wl))
}

// TestGoldenResponses pins, byte for byte, what the handler answers to
// goldenCases and what /metrics reports afterwards. It was recorded on
// the encoding/json request path and must stay unchanged by any codec
// or middleware that replaces it.
func TestGoldenResponses(t *testing.T) {
	h := goldenHandler(t)
	var sb strings.Builder
	for _, c := range goldenCases {
		rec := serve(h, c.method, c.path, c.body)
		body := clockFields.ReplaceAllString(rec.Body.String(), `"$1":0`)
		fmt.Fprintf(&sb, "### %s\n%d %s\n%s\n", c.name, rec.Code, rec.Header().Get("Content-Type"), body)
	}
	checkGolden(t, "responses.golden", sb.String())

	rec := serve(h, "GET", "/metrics", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics status %d", rec.Code)
	}
	checkGolden(t, "metrics.golden", clockSamples.ReplaceAllString(rec.Body.String(), "$1 X"))
}
