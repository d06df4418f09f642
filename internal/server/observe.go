package server

import (
	"log/slog"
	"maps"
	"net/http"
	"strconv"
	"strings"
	"time"

	"gqr"
	"gqr/internal/metrics"
	"gqr/internal/vecmath"
)

// Metric families exported by the handler. The search counters use the
// paper's §2.2 work units so operator dashboards graph the same
// quantities as Figures 8-10.
const (
	mHTTPRequests    = "gqr_http_requests_total"
	mHTTPLatency     = "gqr_http_request_seconds"
	mQueries         = "gqr_search_queries_total"
	mBucketsGen      = "gqr_search_buckets_generated_total"
	mBucketsProbed   = "gqr_search_buckets_probed_total"
	mCandidates      = "gqr_search_candidates_total"
	mAbandoned       = "gqr_search_early_abandoned_total"
	mADCScored       = "gqr_search_adc_scored_total"
	mReranked        = "gqr_search_reranked_total"
	mEarlyStops      = "gqr_search_early_stops_total"
	mQueryErrors     = "gqr_search_query_errors_total"
	mBatches         = "gqr_search_batches_total"
	mIndexItems      = "gqr_index_items"
	mIndexTables     = "gqr_index_tables"
	mIndexCodeBits   = "gqr_index_code_bits"
	mIndexBuckets    = "gqr_index_buckets"
	mIndexBuildSecs  = "gqr_index_build_seconds"
	mIndexTrainSecs  = "gqr_index_build_train_seconds"
	mIndexCodeSecs   = "gqr_index_build_code_seconds"
	mIndexFreezeSecs = "gqr_index_build_freeze_seconds"
	mIndexBuildProcs = "gqr_index_build_parallelism"
	mIndexAdds       = "gqr_index_adds"
	mIndexDeletes    = "gqr_index_deletes"
	mIndexLive       = "gqr_index_live_items"
	mIndexTombs      = "gqr_index_tombstones"
	mIndexTombsPend  = "gqr_index_tombstones_pending"
	mIndexPurged     = "gqr_index_purged_total"
	mIndexRebuilds   = "gqr_index_method_rebuilds"
	mIndexSnapGen    = "gqr_index_snapshot_generation"
	mIndexSegments   = "gqr_index_segments"
	mIndexMemtable   = "gqr_index_memtable_items"
	mIndexWALBytes   = "gqr_index_wal_bytes"
	mIndexSeals      = "gqr_index_seals_total"
	mIndexMerges     = "gqr_index_merges_total"
	mIndexMergeSecs  = "gqr_index_merge_seconds"
)

// initMetrics registers every fixed series up front so /metrics serves
// complete HELP/TYPE families even before traffic arrives.
func (h *Handler) initMetrics() {
	h.cQueries = h.reg.Counter(mQueries, "Queries answered (batch queries count individually).")
	h.cBucketsGen = h.reg.Counter(mBucketsGen, "Probe-sequence bucket emissions, including empty buckets (paper §2.2).")
	h.cBucketsProbed = h.reg.Counter(mBucketsProbed, "Non-empty buckets evaluated.")
	h.cCandidates = h.reg.Counter(mCandidates, "Distinct items whose exact distance was computed (the paper's retrieved items).")
	h.cAbandoned = h.reg.Counter(mAbandoned, "Candidates whose distance computation was cut short by the early-abandon bound (subset of candidates).")
	h.cADCScored = h.reg.Counter(mADCScored, "Candidates scored by the quantized re-ranking stage's ADC table (0 when the index has no reranker).")
	h.cReranked = h.reg.Counter(mReranked, "Re-ranking survivors handed to exact evaluation (at most factor*k per query).")
	h.cEarlyStops = h.reg.Counter(mEarlyStops, "Queries terminated by the QD lower-bound rule (paper §4.1).")
	h.cQueryErrors = h.reg.Counter(mQueryErrors, "Per-query failures inside /batch requests.")
	h.cBatches = h.reg.Counter(mBatches, "Batched executions: /batch requests.")
	h.gItems = h.reg.Gauge(mIndexItems, "Vectors in the index.")
	h.gTables = h.reg.Gauge(mIndexTables, "Hash tables in the index.")
	h.gCodeBits = h.reg.Gauge(mIndexCodeBits, "Binary code length in bits.")
	h.gBuckets = h.reg.Gauge(mIndexBuckets, "Non-empty buckets summed over tables.")
	h.gBuildSeconds = h.reg.Gauge(mIndexBuildSecs, "Index build (train + hash) time in seconds.")
	h.gTrainSecs = h.reg.Gauge(mIndexTrainSecs, "Build stage: hasher training time in seconds.")
	h.gCodeSecs = h.reg.Gauge(mIndexCodeSecs, "Build stage: item coding time in seconds.")
	h.gFreezeSecs = h.reg.Gauge(mIndexFreezeSecs, "Build stage: CSR core construction (freeze) time in seconds.")
	h.gBuildProcs = h.reg.Gauge(mIndexBuildProcs, "Resolved worker bound the index build ran with (0 when loaded from disk).")
	h.gAdds = h.reg.Gauge(mIndexAdds, "Vectors appended via Add since construction.")
	h.gDeletes = h.reg.Gauge(mIndexDeletes, "Tombstones recorded via Delete/Update since construction.")
	h.gLive = h.reg.Gauge(mIndexLive, "Live (searchable) vectors: allocated ids minus tombstones.")
	h.gTombs = h.reg.Gauge(mIndexTombs, "Deleted ids (permanently allocated, never returned by searches).")
	h.gTombsPend = h.reg.Gauge(mIndexTombsPend, "Tombstoned ids still occupying posting-list slots (not yet purged by a seal or merge).")
	h.cPurged = h.reg.Counter(mIndexPurged, "Tombstoned items dropped from posting lists by merges and compactions.")
	h.gRebuilds = h.reg.Gauge(mIndexRebuilds, "Querying-method view rebuilds triggered by Add.")
	h.gSnapGen = h.reg.Gauge(mIndexSnapGen, "Generation of the published read snapshot searches run on.")
	h.gSegments = h.reg.Gauge(mIndexSegments, "Frozen LSM segments in the live index.")
	h.gMemtable = h.reg.Gauge(mIndexMemtable, "Items in the mutable memtable (not yet sealed).")
	h.gWALBytes = h.reg.Gauge(mIndexWALBytes, "Bytes across live write-ahead log files (0 when durability is off).")
	h.gSeals = h.reg.Gauge(mIndexSeals, "Memtable seals since construction.")
	h.gMerges = h.reg.Gauge(mIndexMerges, "Background segment merges since construction.")
	h.hMerge = h.reg.Histogram(mIndexMergeSecs, "Background segment-merge duration in seconds.", nil)
	h.updateIndexGauges()
}

// updateIndexGauges refreshes the lifecycle gauges from the index; it
// runs on every scrape so the gauges track Add traffic.
func (h *Handler) updateIndexGauges() {
	st := h.ix.Stats()
	h.gItems.Set(float64(st.Items))
	h.gTables.Set(float64(st.Tables))
	h.gCodeBits.Set(float64(st.CodeLength))
	buckets := 0
	for _, b := range st.Buckets {
		buckets += b
	}
	h.gBuckets.Set(float64(buckets))
	h.gBuildSeconds.Set(st.BuildTime.Seconds())
	h.gTrainSecs.Set(st.TrainTime.Seconds())
	h.gCodeSecs.Set(st.CodeTime.Seconds())
	h.gFreezeSecs.Set(st.FreezeTime.Seconds())
	h.gBuildProcs.Set(float64(st.BuildParallelism))
	h.gAdds.Set(float64(st.Adds))
	h.gDeletes.Set(float64(st.Deletes))
	h.gLive.Set(float64(st.LiveItems))
	h.gTombs.Set(float64(st.Tombstones))
	h.gTombsPend.Set(float64(st.PendingTombstones))
	h.gRebuilds.Set(float64(st.MethodRebuilds))
	h.gSnapGen.Set(float64(st.SnapshotGeneration))
	h.gSegments.Set(float64(st.Segments))
	h.gMemtable.Set(float64(st.MemtableItems))
	h.gWALBytes.Set(float64(st.WALBytes))
	h.gSeals.Set(float64(st.Seals))
	h.gMerges.Set(float64(st.Merges))
}

// recordSearchWork adds one request's query work to the cumulative
// counters and to the request's recorder, for its log line. n is the
// number of queries answered (a batch records its merged stats once).
func (h *Handler) recordSearchWork(w http.ResponseWriter, st gqr.SearchStats, n int) {
	if n <= 0 && st == (gqr.SearchStats{}) {
		return
	}
	h.cQueries.Add(int64(n))
	h.cBucketsGen.Add(int64(st.BucketsGenerated))
	h.cBucketsProbed.Add(int64(st.BucketsProbed))
	h.cCandidates.Add(int64(st.Candidates))
	h.cAbandoned.Add(int64(st.EarlyAbandoned))
	h.cADCScored.Add(int64(st.ADCScored))
	h.cReranked.Add(int64(st.Reranked))
	if st.EarlyStopped {
		h.cEarlyStops.Inc()
	}
	if rec, ok := w.(*statusRecorder); ok {
		rec.queries += n
		rec.work.Merge(st)
	}
}

// statusRecorder is the ResponseWriter the mux's handlers receive: it
// captures the response code for logging and metrics, and accumulates
// the request's query work for the log line.
type statusRecorder struct {
	http.ResponseWriter
	status  int
	queries int
	work    gqr.SearchStats
}

func (s *statusRecorder) WriteHeader(code int) {
	s.status = code
	s.ResponseWriter.WriteHeader(code)
}

// knownPaths bounds the path label's cardinality: arbitrary request
// paths (scanners, typos) all fold into "other" so they cannot grow
// the registry without bound.
var knownPaths = map[string]bool{
	"/search": true, "/batch": true, "/add": true, "/stats": true,
	"/healthz": true, "/metrics": true, "/statsz": true,
	"/debug/querytrace": true,
}

func pathLabel(p string) string {
	if knownPaths[p] {
		return p
	}
	if strings.HasPrefix(p, "/vector/") {
		return "/vector/{id}"
	}
	if strings.HasPrefix(p, "/debug/pprof") {
		return "/debug/pprof"
	}
	return "other"
}

// requestSeries are the two series one request observes.
type requestSeries struct {
	requests *metrics.Counter
	latency  *metrics.Histogram
}

// seriesKey is what selects them; path is a pathLabel.
type seriesKey struct {
	method, path string
	code         int
}

// maxCachedSeries bounds the cache: the method is the client's to
// choose, and triples past the bound go through the registry each time.
const maxCachedSeries = 256

// seriesFor returns the series of one (method, path, code). The
// registry renders and sorts a label set under its lock on every
// lookup, so the handler keeps the pointers: a copy-on-write map that
// requests read without a lock.
func (h *Handler) seriesFor(key seriesKey) requestSeries {
	if s, ok := (*h.series.Load())[key]; ok {
		return s
	}
	s := requestSeries{
		requests: h.reg.CounterWith(mHTTPRequests, "HTTP requests by method, path and status code.",
			metrics.Labels{"method": key.method, "path": key.path, "code": strconv.Itoa(key.code)}),
		latency: h.reg.HistogramWith(mHTTPLatency, "HTTP request latency in seconds.", nil,
			metrics.Labels{"path": key.path}),
	}
	h.seriesMu.Lock()
	defer h.seriesMu.Unlock()
	if cached := *h.series.Load(); len(cached) < maxCachedSeries {
		next := maps.Clone(cached)
		next[key] = s
		h.series.Store(&next)
	}
	return s
}

// ServeHTTP implements http.Handler: it wraps the mux with structured
// request logging and per-request metrics recording.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
	h.mux.ServeHTTP(rec, r)
	elapsed := time.Since(start)

	s := h.seriesFor(seriesKey{r.Method, pathLabel(r.URL.Path), rec.status})
	s.requests.Inc()
	s.latency.Observe(elapsed.Seconds())

	// Room for every attribute, so that the slice stays on the stack.
	attrs := append(make([]slog.Attr, 0, 9),
		slog.String("method", r.Method),
		slog.String("path", r.URL.Path),
		slog.Int("status", rec.status),
		slog.Duration("duration", elapsed),
	)
	if rec.queries > 0 {
		attrs = append(attrs,
			slog.Int("queries", rec.queries),
			slog.Int("bucketsGenerated", rec.work.BucketsGenerated),
			slog.Int("bucketsProbed", rec.work.BucketsProbed),
			slog.Int("candidates", rec.work.Candidates),
			slog.Bool("earlyStopped", rec.work.EarlyStopped),
		)
	}
	h.log.LogAttrs(r.Context(), slog.LevelInfo, "request", attrs...)
}

func (h *Handler) metricsHandler(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		h.httpError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	h.updateIndexGauges()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := h.reg.WritePrometheus(w); err != nil {
		h.log.Error("metrics encode failed", "error", err)
	}
}

// SearchTotals are the cumulative §2.2 work counters in /statsz.
type SearchTotals struct {
	Queries          int64 `json:"queries"`
	BucketsGenerated int64 `json:"bucketsGenerated"`
	BucketsProbed    int64 `json:"bucketsProbed"`
	Candidates       int64 `json:"candidates"`
	EarlyAbandoned   int64 `json:"earlyAbandoned"`
	ADCScored        int64 `json:"adcScored"`
	Reranked         int64 `json:"reranked"`
	EarlyStops       int64 `json:"earlyStops"`
	QueryErrors      int64 `json:"queryErrors"`
	// Batches counts batched executions: /batch requests.
	Batches int64 `json:"batches"`
}

// PathStats is one endpoint's request breakdown in /statsz.
type PathStats struct {
	Requests int64                   `json:"requests"`
	ByCode   map[string]int64        `json:"byCode"`
	Latency  *metrics.HistogramValue `json:"latencySeconds,omitempty"`
}

// Statsz is the /statsz response body: a JSON snapshot of the same
// registry /metrics exposes, plus a per-endpoint request breakdown.
type Statsz struct {
	UptimeSeconds float64               `json:"uptimeSeconds"`
	Index         gqr.Stats             `json:"index"`
	Search        SearchTotals          `json:"search"`
	HTTP          map[string]*PathStats `json:"http"`
	Metrics       []metrics.MetricValue `json:"metrics"`
	// Kernel names the distance kernel this process evaluates candidates
	// with (vecmath.Kernel): "go" on an amd64 host means the CPU or OS
	// lacks AVX2 and searches run the scalar fallback.
	Kernel string `json:"kernel"`
}

func (h *Handler) statszHandler(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		h.httpError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	h.updateIndexGauges()
	snap := h.reg.Snapshot()
	out := Statsz{
		UptimeSeconds: time.Since(h.start).Seconds(),
		Index:         h.ix.Stats(),
		Search: SearchTotals{
			Queries:          h.cQueries.Value(),
			BucketsGenerated: h.cBucketsGen.Value(),
			BucketsProbed:    h.cBucketsProbed.Value(),
			Candidates:       h.cCandidates.Value(),
			EarlyAbandoned:   h.cAbandoned.Value(),
			ADCScored:        h.cADCScored.Value(),
			Reranked:         h.cReranked.Value(),
			EarlyStops:       h.cEarlyStops.Value(),
			QueryErrors:      h.cQueryErrors.Value(),
			Batches:          h.cBatches.Value(),
		},
		HTTP:    make(map[string]*PathStats),
		Metrics: snap,
		Kernel:  vecmath.Kernel(),
	}
	for _, mv := range snap {
		switch mv.Name {
		case mHTTPRequests:
			p := mv.Labels["path"]
			ps := out.HTTP[p]
			if ps == nil {
				ps = &PathStats{ByCode: make(map[string]int64)}
				out.HTTP[p] = ps
			}
			ps.Requests += int64(mv.Value)
			ps.ByCode[mv.Labels["code"]] += int64(mv.Value)
		case mHTTPLatency:
			p := mv.Labels["path"]
			ps := out.HTTP[p]
			if ps == nil {
				ps = &PathStats{ByCode: make(map[string]int64)}
				out.HTTP[p] = ps
			}
			ps.Latency = mv.Histogram
		}
	}
	h.writeJSON(w, out)
}
