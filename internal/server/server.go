// Package server exposes a gqr index over HTTP with a small JSON API:
//
//	POST /search  {"query":[...], "k":10, "maxCandidates":1000,
//	               "radius":0, "earlyStop":false, "tagMask":0,
//	               "includeStats":true}
//	POST /batch   {"queries":[[...],[...]], "k":10, ...}
//	POST /add     {"vector":[...], "meta":0}
//	DELETE /vector/{id}   tombstone one item (404 unknown/deleted)
//	PUT    /vector/{id}   {"vector":[...]} replace it, returning the
//	                      new id (404 unknown/deleted, 409 wrong dim)
//	GET  /stats
//	GET  /healthz
//	GET  /metrics   Prometheus text exposition
//	GET  /statsz    JSON metrics snapshot
//	GET  /debug/querytrace  flight-recorder traces (JSON, or Chrome
//	                        trace_event with ?format=chrome; 404 when
//	                        the index was built without tracing)
//	GET  /debug/pprof/*  (only with WithPprof)
//
// A request body is read whole, under a cap derived from the index's
// dimension (413 beyond it), and a /batch carries at most 1 024 queries
// (400 beyond that); codec.go is the codec of the four routes that take
// a body.
//
// Every request is logged through log/slog (method, path, status,
// latency, and the query's §2.2 work stats) and recorded into a
// process-wide metrics registry. It is the serving substrate for
// cmd/gqr-server and is tested with net/http/httptest.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"gqr"
	"gqr/internal/metrics"
	"gqr/internal/trace"
)

// Handler routes the JSON API for one index and owns the request
// logging middleware plus the metrics registry behind /metrics and
// /statsz.
type Handler struct {
	ix *gqr.Index
	// dim is the index's vector dimension, immutable after Build and
	// read once in New: Index.Stats takes the writer lock (queuing behind
	// an Add's WAL fsync) and merges every table's bucket-code lists.
	dim   int
	mux   *http.ServeMux
	log   *slog.Logger
	reg   *metrics.Registry
	start time.Time
	pprof bool

	// Cumulative query-work counters (the paper's §2.2 units).
	cQueries       *metrics.Counter
	cBucketsGen    *metrics.Counter
	cBucketsProbed *metrics.Counter
	cCandidates    *metrics.Counter
	cAbandoned     *metrics.Counter
	cADCScored     *metrics.Counter
	cReranked      *metrics.Counter
	cEarlyStops    *metrics.Counter
	cQueryErrors   *metrics.Counter
	// cBatches counts /batch requests executed.
	cBatches *metrics.Counter

	// Index lifecycle gauges, refreshed on every scrape.
	gItems        *metrics.Gauge
	gTables       *metrics.Gauge
	gCodeBits     *metrics.Gauge
	gBuckets      *metrics.Gauge
	gBuildSeconds *metrics.Gauge
	gTrainSecs    *metrics.Gauge
	gCodeSecs     *metrics.Gauge
	gFreezeSecs   *metrics.Gauge
	gBuildProcs   *metrics.Gauge
	gAdds         *metrics.Gauge
	gDeletes      *metrics.Gauge
	gLive         *metrics.Gauge
	gTombs        *metrics.Gauge
	gTombsPend    *metrics.Gauge
	gRebuilds     *metrics.Gauge
	gSnapGen      *metrics.Gauge
	gSegments     *metrics.Gauge
	gMemtable     *metrics.Gauge
	gWALBytes     *metrics.Gauge
	gSeals        *metrics.Gauge
	gMerges       *metrics.Gauge

	// hMerge observes background segment-merge durations and cPurged the
	// tombstoned items those merges dropped, both fed by the index's
	// compaction observer (installed in New).
	hMerge  *metrics.Histogram
	cPurged *metrics.Counter

	// Per-stage latency histograms, indexed by trace.Stage and fed by
	// the flight recorder's observer (empty when tracing is off).
	hStage [trace.NumStages]*metrics.Histogram

	// series caches the per-request series by (method, path, code); see
	// seriesFor. seriesMu serializes its writers.
	series   atomic.Pointer[map[seriesKey]requestSeries]
	seriesMu sync.Mutex
}

// Option configures a Handler.
type Option func(*Handler)

// WithLogger replaces the request logger (default slog.Default()).
func WithLogger(l *slog.Logger) Option { return func(h *Handler) { h.log = l } }

// WithRegistry shares an external metrics registry (default: a fresh
// one per Handler). Useful when one process serves several indexes.
func WithRegistry(r *metrics.Registry) Option { return func(h *Handler) { h.reg = r } }

// WithPprof mounts net/http/pprof under /debug/pprof/. Off by default:
// profiling endpoints expose internals and cost CPU, so production
// deployments opt in explicitly (the -pprof flag of cmd/gqr-server).
func WithPprof() Option { return func(h *Handler) { h.pprof = true } }

// New wraps an index in an http.Handler.
func New(ix *gqr.Index, opts ...Option) *Handler {
	h := &Handler{ix: ix, dim: ix.Stats().Dim, mux: http.NewServeMux(), start: time.Now()}
	for _, o := range opts {
		o(h)
	}
	if h.log == nil {
		h.log = slog.Default()
	}
	if h.reg == nil {
		h.reg = metrics.NewRegistry()
	}
	h.series.Store(&map[seriesKey]requestSeries{})
	h.initMetrics()
	h.initTracing()
	// Merge durations arrive by callback — merges run on a background
	// goroutine, so no scrape-time poll can time them.
	ix.SetCompactionObserver(func(ci gqr.CompactionInfo) {
		h.hMerge.Observe(ci.Duration.Seconds())
		h.cPurged.Add(int64(ci.Purged))
	})
	h.mux.HandleFunc("/search", h.search)
	h.mux.HandleFunc("/batch", h.batch)
	h.mux.HandleFunc("/add", h.add)
	h.mux.HandleFunc("DELETE /vector/{id}", h.deleteVector)
	h.mux.HandleFunc("PUT /vector/{id}", h.updateVector)
	h.mux.HandleFunc("/stats", h.stats)
	h.mux.HandleFunc("/healthz", h.healthz)
	h.mux.HandleFunc("/metrics", h.metricsHandler)
	h.mux.HandleFunc("/statsz", h.statszHandler)
	h.mux.HandleFunc("/debug/querytrace", h.querytrace)
	if h.pprof {
		h.mux.HandleFunc("/debug/pprof/", pprof.Index)
		h.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		h.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		h.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		h.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return h
}

// Registry returns the handler's metrics registry (for snapshot logging
// at shutdown).
func (h *Handler) Registry() *metrics.Registry { return h.reg }

// SearchRequest is the /search request body.
type SearchRequest struct {
	Query         []float32 `json:"query"`
	K             int       `json:"k"`
	MaxCandidates int       `json:"maxCandidates,omitempty"`
	MaxBuckets    int       `json:"maxBuckets,omitempty"`
	Radius        float64   `json:"radius,omitempty"`
	EarlyStop     bool      `json:"earlyStop,omitempty"`
	// TagMask keeps only items whose metadata word contains every set
	// bit (gqr.WithTagMask); rejected items are filtered before any
	// distance computation.
	TagMask uint64 `json:"tagMask,omitempty"`
	// IncludeStats echoes the query's work stats (buckets generated and
	// probed, candidates, early-stop flag, retrieval/evaluation time) in
	// the response.
	IncludeStats bool `json:"includeStats,omitempty"`
}

// NeighborJSON is one result entry.
type NeighborJSON struct {
	ID       int     `json:"id"`
	Distance float64 `json:"distance"`
}

// SearchResponse is the /search response body.
type SearchResponse struct {
	Neighbors []NeighborJSON   `json:"neighbors"`
	Stats     *gqr.SearchStats `json:"stats,omitempty"`
}

// BatchRequest is the /batch request body.
type BatchRequest struct {
	Queries       [][]float32 `json:"queries"`
	K             int         `json:"k"`
	MaxCandidates int         `json:"maxCandidates,omitempty"`
	MaxBuckets    int         `json:"maxBuckets,omitempty"`
	Radius        float64     `json:"radius,omitempty"`
	EarlyStop     bool        `json:"earlyStop,omitempty"`
	TagMask       uint64      `json:"tagMask,omitempty"`
	IncludeStats  bool        `json:"includeStats,omitempty"`
}

// BatchEntry is one query's outcome inside a /batch response: either
// its neighbors (and optionally stats) or the error that failed this
// query alone.
type BatchEntry struct {
	Neighbors []NeighborJSON   `json:"neighbors"`
	Stats     *gqr.SearchStats `json:"stats,omitempty"`
	Error     string           `json:"error,omitempty"`
}

// BatchStats aggregates one /batch execution: how many queries
// answered and failed, the summed §2.2 work counters across the
// answered ones, and — when the request asked for stats — which query
// was slowest (by retrieval + evaluation time) and how long it took.
// SlowestQuery is -1 when per-query timing was not collected.
type BatchStats struct {
	Answered         int             `json:"answered"`
	Failed           int             `json:"failed"`
	Stats            gqr.SearchStats `json:"stats"`
	SlowestQuery     int             `json:"slowestQuery"`
	SlowestQueryTime time.Duration   `json:"slowestQueryTimeNs,omitempty"`
}

// BatchResponse is the /batch response body. Per-query failures (for
// example one ragged query in an otherwise valid batch) appear as
// entries with a non-empty Error; only structural problems — bad k,
// malformed JSON — fail the whole request with a 400. Batch summarizes
// the whole execution.
type BatchResponse struct {
	Results []BatchEntry `json:"results"`
	Batch   *BatchStats  `json:"batch,omitempty"`
}

// AddRequest is the /add request body. Meta is the optional per-item
// metadata word consulted by tagMask/filtered searches.
type AddRequest struct {
	Vector []float32 `json:"vector"`
	Meta   uint64    `json:"meta,omitempty"`
}

// AddResponse is the /add response body.
type AddResponse struct {
	ID int `json:"id"`
}

// UpdateRequest is the PUT /vector/{id} request body.
type UpdateRequest struct {
	Vector []float32 `json:"vector"`
}

// UpdateResponse is the PUT /vector/{id} response body: the item's new
// id (updates re-append; ids are never reused).
type UpdateResponse struct {
	ID int `json:"id"`
}

// searchOptions renders the search parameters /search and /batch share
// as the options of one search call. includeStats turns on WithProfile:
// the echoed stats carry the retrieval/evaluation time split.
func searchOptions(maxCand, maxBuckets int, radius float64, earlyStop bool, tagMask uint64, includeStats bool) []gqr.SearchOption {
	var opts []gqr.SearchOption
	if maxCand > 0 {
		opts = append(opts, gqr.WithMaxCandidates(maxCand))
	}
	if maxBuckets > 0 {
		opts = append(opts, gqr.WithMaxBuckets(maxBuckets))
	}
	if radius > 0 {
		opts = append(opts, gqr.WithRadius(radius))
	}
	if earlyStop {
		opts = append(opts, gqr.WithEarlyStop())
	}
	if tagMask != 0 {
		opts = append(opts, gqr.WithTagMask(tagMask))
	}
	if includeStats {
		opts = append(opts, gqr.WithProfile())
	}
	return opts
}

func (h *Handler) search(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		h.httpError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	buf := getBuffer()
	defer putBuffer(buf)
	if !h.readBody(w, r, buf, bodyLimit(h.dim)) {
		return
	}
	var req SearchRequest
	if err := decodeSearch(buf.b, &req, h.dim); err != nil {
		h.httpError(w, http.StatusBadRequest, "invalid JSON: %v", err)
		return
	}
	nbrs, st, err := h.ix.SearchWithStats(req.Query, req.K, searchOptions(req.MaxCandidates, req.MaxBuckets, req.Radius, req.EarlyStop, req.TagMask, req.IncludeStats)...)
	if err != nil {
		h.httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	h.recordSearchWork(w, st, 1)
	// What json.Encoder writes for a SearchResponse.
	out := append(buf.b[:0], `{"neighbors":`...)
	out, err = appendNeighbors(out, nbrs)
	if err == nil && req.IncludeStats {
		out = append(out, `,"stats":`...)
		out, err = appendJSON(out, st)
	}
	buf.b = append(out, "}\n"...)
	h.writeBody(w, buf.b, err)
}

func (h *Handler) batch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		h.httpError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	buf := getBuffer()
	defer putBuffer(buf)
	dim := h.dim
	if !h.readBody(w, r, buf, bodyLimit(dim)*maxBatchQueries) {
		return
	}
	var req BatchRequest
	flat, err := decodeBatch(buf.b, &req, dim)
	if err != nil {
		h.httpError(w, http.StatusBadRequest, "invalid JSON: %v", err)
		return
	}
	if len(req.Queries) > maxBatchQueries {
		h.httpError(w, http.StatusBadRequest, "batch of %d queries exceeds the limit of %d", len(req.Queries), maxBatchQueries)
		return
	}
	// Only well-formed queries are searched; ragged ones become
	// per-entry errors instead of failing the whole batch. slot maps a
	// request entry to its query's place in the searched block.
	slot := make([]int, len(req.Queries))
	wellFormed := 0
	for i, q := range req.Queries {
		slot[i] = -1
		if len(q) == dim {
			slot[i] = wellFormed
			wellFormed++
		}
	}
	if flat == nil || wellFormed < len(req.Queries) {
		flat = make([]float32, 0, wellFormed*dim)
		for i, q := range req.Queries {
			if slot[i] >= 0 {
				flat = append(flat, q...)
			}
		}
	}
	results, err := h.ix.SearchBatchWithStats(flat, req.K, searchOptions(req.MaxCandidates, req.MaxBuckets, req.Radius, req.EarlyStop, req.TagMask, req.IncludeStats)...)
	if err != nil {
		// Structural failure (bad k, bad block): the whole batch is
		// invalid, not any single query.
		h.httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	agg := BatchStats{SlowestQuery: -1, Failed: len(req.Queries) - wellFormed}
	for i, bi := range slot {
		if bi < 0 {
			continue
		}
		res := &results[bi]
		if res.Err != nil {
			agg.Failed++
			continue
		}
		if req.IncludeStats {
			// Per-query timing exists only under WithProfile, which
			// IncludeStats turns on; attribute the batch's slowest query.
			if qt := res.Stats.RetrievalTime + res.Stats.EvaluationTime; agg.SlowestQuery < 0 || qt > agg.SlowestQueryTime {
				agg.SlowestQuery, agg.SlowestQueryTime = i, qt
			}
		}
		agg.Stats.Merge(res.Stats)
		agg.Answered++
	}
	h.cBatches.Inc()
	h.recordSearchWork(w, agg.Stats, agg.Answered)
	h.cQueryErrors.Add(int64(agg.Failed))

	// What json.Encoder writes for a BatchResponse.
	out := append(buf.b[:0], `{"results":[`...)
	for i, bi := range slot {
		if i > 0 {
			out = append(out, ',')
		}
		switch {
		case bi < 0:
			out = appendEntryError(out, fmt.Sprintf("query %d has dim %d, want %d", i, len(req.Queries[i]), dim))
		case results[bi].Err != nil:
			out = appendEntryError(out, results[bi].Err.Error())
		default:
			out = append(out, `{"neighbors":`...)
			out, err = appendNeighbors(out, results[bi].Neighbors)
			if err == nil && req.IncludeStats {
				out = append(out, `,"stats":`...)
				out, err = appendJSON(out, results[bi].Stats)
			}
			out = append(out, '}')
		}
		if err != nil {
			break
		}
	}
	if err == nil {
		out = append(out, `],"batch":`...)
		out, err = appendJSON(out, agg)
	}
	buf.b = append(out, "}\n"...)
	h.writeBody(w, buf.b, err)
}

func (h *Handler) add(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		h.httpError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	buf := getBuffer()
	defer putBuffer(buf)
	if !h.readBody(w, r, buf, bodyLimit(h.dim)) {
		return
	}
	var req AddRequest
	if err := decodeAdd(buf.b, &req, h.dim); err != nil {
		h.httpError(w, http.StatusBadRequest, "invalid JSON: %v", err)
		return
	}
	id, err := h.ix.AddWithMeta(req.Vector, req.Meta)
	if err != nil {
		h.httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	buf.b = appendID(buf.b[:0], id)
	h.writeBody(w, buf.b, nil)
}

// vectorID parses the {id} path segment; ok=false means the 400 is
// already written.
func (h *Handler) vectorID(w http.ResponseWriter, r *http.Request) (int, bool) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		h.httpError(w, http.StatusBadRequest, "bad vector id %q", r.PathValue("id"))
		return 0, false
	}
	return id, true
}

func (h *Handler) deleteVector(w http.ResponseWriter, r *http.Request) {
	id, ok := h.vectorID(w, r)
	if !ok {
		return
	}
	if err := h.ix.Delete(id); err != nil {
		if errors.Is(err, gqr.ErrNotFound) {
			h.httpError(w, http.StatusNotFound, "%v", err)
		} else {
			h.httpError(w, http.StatusInternalServerError, "%v", err)
		}
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (h *Handler) updateVector(w http.ResponseWriter, r *http.Request) {
	id, ok := h.vectorID(w, r)
	if !ok {
		return
	}
	buf := getBuffer()
	defer putBuffer(buf)
	if !h.readBody(w, r, buf, bodyLimit(h.dim)) {
		return
	}
	var req UpdateRequest
	if err := decodeUpdate(buf.b, &req, h.dim); err != nil {
		h.httpError(w, http.StatusBadRequest, "invalid JSON: %v", err)
		return
	}
	newID, err := h.ix.Update(id, req.Vector)
	if err != nil {
		switch {
		case errors.Is(err, gqr.ErrNotFound):
			h.httpError(w, http.StatusNotFound, "%v", err)
		case errors.Is(err, gqr.ErrDimension):
			h.httpError(w, http.StatusConflict, "%v", err)
		default:
			h.httpError(w, http.StatusInternalServerError, "%v", err)
		}
		return
	}
	buf.b = appendID(buf.b[:0], newID)
	h.writeBody(w, buf.b, nil)
}

func (h *Handler) stats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		h.httpError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	h.writeJSON(w, h.ix.Stats())
}

func (h *Handler) healthz(w http.ResponseWriter, r *http.Request) {
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

var jsonContentType = []string{"application/json"}

// writeBody sends a response the codec encoded, or — nothing being
// written yet — a 500 when it could not: a non-finite distance has no
// JSON form.
func (h *Handler) writeBody(w http.ResponseWriter, body []byte, encodeErr error) {
	if encodeErr != nil {
		h.log.Error("response encode failed", "error", encodeErr)
		h.httpError(w, http.StatusInternalServerError, "%v", encodeErr)
		return
	}
	// Header.Set would allocate this slice anew for every response.
	w.Header()["Content-Type"] = jsonContentType
	if _, err := w.Write(body); err != nil {
		h.log.Error("response write failed", "error", err)
	}
}

func (h *Handler) writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Headers are already sent, so the client sees a truncated body;
		// the operator sees this line.
		h.log.Error("response encode failed", "error", err)
	}
}

func (h *Handler) httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)}); err != nil {
		h.log.Error("error-response encode failed", "error", err)
	}
}
