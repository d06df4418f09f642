package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"gqr"
	"gqr/internal/server"
	"gqr/internal/trace"
	"gqr/internal/vecmath"
	"gqr/internal/wal"
)

// layers is the traced run. It reports one number per layer of the stack,
// named by module, so that a change to one layer can be followed to the
// end-to-end metric it should move; README.md has the map. The end-to-end
// metrics come from the other run, with tracing off.
//
// The run is bounded by passes and not by --seconds: one pass over the
// query set (or the mixed sequence) is what makes its counters repeat
// exactly for a seed.
func (r *run) layers(measure time.Duration, traceFile string) error {
	ops := r.mixedLength(measure)
	if _, err := r.setUp(ops); err != nil {
		return err
	}
	st := r.ix.Stats()
	r.set("gqr.build_s", st.BuildTime.Seconds(), "s")
	r.set("index.train_s", st.TrainTime.Seconds(), "s")
	r.set("index.code_s", st.CodeTime.Seconds(), "s")
	r.set("index.freeze_s", st.FreezeTime.Seconds(), "s")
	r.set("index.code_bits", float64(st.CodeLength), "count")
	buckets := 0
	for _, b := range st.Buckets {
		buckets += b
	}
	r.set("index.buckets", float64(buckets), "count")

	// The traced index is the same index, saved and loaded with the flight
	// recorder on: tracing is switched on through the public options and
	// read through the public observer.
	var saved bytes.Buffer
	start := time.Now()
	if err := r.ix.Save(&saved); err != nil {
		return fmt.Errorf("save: %w", err)
	}
	r.set("gqr.save_s", time.Since(start).Seconds(), "s")
	r.set("gqr.saved_bytes", float64(saved.Len()), "B")
	start = time.Now()
	tix, err := gqr.Load(bytes.NewReader(saved.Bytes()), r.base, r.w.dim, gqr.WithTracing(1))
	if err != nil {
		return fmt.Errorf("load: %w", err)
	}
	r.set("gqr.load_s", time.Since(start).Seconds(), "s")

	r.direct(tix)
	r.serverAllocs()
	r.kernels()
	if err := r.walLayer(); err != nil {
		return err
	}
	if err := r.clientFloor(); err != nil {
		return err
	}

	// From here on every request goes to the traced index, behind the same
	// server with the span-recording wrapper around it.
	r.srv.Close()
	if err := r.ix.Close(); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	r.ix = tix
	if r.w.durable {
		r.dataDir = filepath.Join(r.dir, "data-traced")
		if err := tix.EnableDurability(r.dataDir); err != nil {
			return fmt.Errorf("enable durability: %w", err)
		}
	}
	r.tr = &tracer{}
	handler := server.New(tix, server.WithLogger(discardLogger()))
	// server.New points the recorder's observer at its stage histograms;
	// the benchmark takes it over, so those stay empty in this run.
	tix.TraceRecorder().SetObserver(r.tr.observe)
	r.srv = httptest.NewServer(r.tr.wrap(handler))
	before, _, err := r.scrape()
	if err != nil {
		return err
	}

	rng := rand.New(rand.NewSource(r.seed + 1))
	if r.w.durable {
		r.mixedSequence(mixedOps(rng, ops), rng)
	} else {
		c := newClient(r.srv.URL)
		for i := range r.readBodies {
			r.read(c, i, &r.tally)
		}
		c.close()
		r.writeTail(rng)
	}
	addHandlerUS := r.serverLayer()
	r.queryLayer()
	if err := r.metricsLayer(before); err != nil {
		return err
	}
	if err := r.storageLayer(tix); err != nil {
		return err
	}
	r.writeCosts(tix, addHandlerUS)
	return r.tr.writeChrome(traceFile)
}

// direct calls the index without the server: the cost of one search and of
// one batched search, their allocations, and what tracing adds.
func (r *run) direct(tix *gqr.Index) {
	budget := gqr.WithMaxCandidates(r.maxCand())
	timeSearches := func(ix *gqr.Index) float64 {
		lats := make([]time.Duration, r.sz.queries)
		for i := range lats {
			start := time.Now()
			if _, _, err := ix.SearchWithStats(r.query(i), topK, budget); err != nil {
				r.fail(1, fmt.Errorf("direct search %d: %w", i, err))
			}
			lats[i] = time.Since(start)
		}
		r.attempted += len(lats)
		return p50us(lats)
	}
	plain := timeSearches(r.ix)
	tracedUS := timeSearches(tix)
	r.set("gqr.search_us", plain, "us")
	r.set("trace.overhead_share", tracedUS/plain-1, "ratio")

	allocs, _ := allocsPer(r.sz.queries, func(i int) { r.ix.SearchWithStats(r.query(i), topK, budget) })
	r.set("gqr.allocs_per_search", allocs, "count")

	const batch = 32
	var lats []time.Duration
	for lo := 0; lo+batch <= r.sz.queries; lo += batch {
		block := r.queries[lo*r.w.dim : (lo+batch)*r.w.dim]
		start := time.Now()
		if _, err := r.ix.SearchBatch(block, topK, budget); err != nil {
			r.fail(batch, fmt.Errorf("direct batch at %d: %w", lo, err))
		}
		lats = append(lats, time.Since(start))
		r.attempted += batch
	}
	perQuery := p50us(lats) / batch
	r.set("gqr.batch_us_per_query", perQuery, "us")
	r.set("gqr.batch_gain", plain/perQuery, "ratio")
}

// allocsPer runs f n times and returns the heap objects and bytes allocated
// per call, by the whole process: it is called while nothing else runs.
func allocsPer(n int, f func(i int)) (objects, bytes float64) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		f(i)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n), float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// nullWriter is the least an http.ResponseWriter can be.
type nullWriter struct{ h http.Header }

func (w *nullWriter) Header() http.Header         { return w.h }
func (w *nullWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *nullWriter) WriteHeader(int)             {}

// serverAllocs counts what the server layer allocates for one read request
// by calling its handler without a network: the same loop against a handler
// that does nothing is the floor it subtracts.
func (r *run) serverAllocs() {
	handler := server.New(r.ix, server.WithLogger(discardLogger()))
	serve := func(h http.Handler) (float64, float64) {
		return allocsPer(len(r.readBodies), func(i int) {
			req, _ := http.NewRequest(http.MethodPost, r.readPath(), bytes.NewReader(r.readBodies[i]))
			h.ServeHTTP(&nullWriter{h: http.Header{}}, req)
		})
	}
	objects, size := serve(handler)
	floorObjects, floorSize := serve(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	r.set("server.allocs_per_req", objects-floorObjects, "count")
	r.set("server.alloc_bytes_per_req", size-floorSize, "B")
}

// calibRow is the benchmark's own scalar distance loop. It is timed in the
// same rounds as the program's kernel, so that a slow host can be told
// from a slow kernel.
func calibRow(a, b []float32) float64 {
	var s float32
	for j, x := range a {
		d := x - b[j]
		s += d * d
	}
	return float64(s)
}

var sink float64

// kernels times the distance kernel under the evaluation stage on its own:
// as many seeded-random rows as a query of this workload evaluates, first
// with no bound and then bounded by the query's exact k-th distance, which
// is the tightest bound evaluation ever holds.
func (r *run) kernels() {
	const rounds, queries = 7, 20
	rows := min(r.maxCand(), r.n())
	rng := rand.New(rand.NewSource(r.seed + 2))
	ids := make([]int, rows)
	for i := range ids {
		ids[i] = rng.Intn(r.n())
	}
	row := func(id int) []float32 { return r.base[id*r.w.dim:][:r.w.dim] }
	var calib, full, bounded []float64
	perRow := func(start time.Time) float64 {
		return float64(time.Since(start).Nanoseconds()) / float64(queries*rows)
	}
	for round := 0; round < rounds; round++ {
		start := time.Now()
		for q := 0; q < queries; q++ {
			for _, id := range ids {
				sink += calibRow(r.query(q), row(id))
			}
		}
		calib = append(calib, perRow(start))
		start = time.Now()
		for q := 0; q < queries; q++ {
			for _, id := range ids {
				sink += vecmath.SquaredL2Bounded(r.query(q), row(id), math.Inf(1))
			}
		}
		full = append(full, perRow(start))
		start = time.Now()
		for q := 0; q < queries; q++ {
			bound := dist2(r.query(q), row(r.truth[q][topK-1]))
			for _, id := range ids {
				sink += vecmath.SquaredL2Bounded(r.query(q), row(id), bound)
			}
		}
		bounded = append(bounded, perRow(start))
	}
	r.set("host.calib_ns_per_row", median(calib), "ns")
	r.set("vecmath.l2_ns_per_row", median(full), "ns")
	r.set("vecmath.l2_abandon_ns_per_row", median(bounded), "ns")
}

// walLayer times the write-ahead log alone: synced appends of 64-dimension
// vectors, and the replay of what they wrote.
func (r *run) walLayer() error {
	const dim = 64
	path := filepath.Join(r.dir, "layer.wal")
	w, err := wal.Create(path)
	if err != nil {
		return fmt.Errorf("wal create: %w", err)
	}
	n := min(r.sz.writes/5, len(r.extra)/dim)
	lats := make([]time.Duration, n)
	for i := range lats {
		start := time.Now()
		if err := w.Append(uint64(i), r.extra[i*dim:][:dim]); err != nil {
			return fmt.Errorf("wal append: %w", err)
		}
		lats[i] = time.Since(start)
	}
	if err := w.Close(); err != nil {
		return fmt.Errorf("wal close: %w", err)
	}
	r.set("wal.append_us", p50us(lats), "us")
	seen := 0
	start := time.Now()
	clean, err := wal.Replay(path, dim, func(wal.Op, uint64, uint64, []float32) error { seen++; return nil })
	took := time.Since(start)
	r.attempted++
	if err != nil || !clean || seen != n {
		r.fail(1, fmt.Errorf("wal replay: %d of %d frames, clean %v: %v", seen, n, clean, err))
	}
	r.set("wal.replay_us_per_frame", usOf(took)/float64(n), "us")
	return os.Remove(path)
}

// clientFloor sends the read requests over the same transport to a handler
// that does nothing: the floor under server.net_us, which is the load
// generator's own cost and no layer's.
func (r *run) clientFloor() error {
	srv := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	defer srv.Close()
	c := newClient(srv.URL)
	defer c.close()
	lats := make([]time.Duration, r.sz.queries/2)
	for i := range lats {
		rep, err := c.do(http.MethodPost, r.readPath(), r.readBodies[i%len(r.readBodies)], 0)
		if err != nil {
			return fmt.Errorf("client floor: %w", err)
		}
		lats[i] = rep.lat
	}
	r.set("gen.client_floor_us", p50us(lats), "us")
	return nil
}

// serverLayer splits the traced requests' round trips: what the transport
// took around the handler, and what the handler took around the search. It
// returns the median /add inside the handler, which has no flight record to
// take out of it.
func (r *run) serverLayer() (addHandlerUS float64) {
	var net, codec, writeHandler, reqBytes, respBytes []float64
	for _, s := range r.tr.reqs {
		switch {
		case s.kind == opAdd:
			writeHandler = append(writeHandler, usOf(s.handler))
		case s.kind == opSearch && s.records > 0:
			net = append(net, usOf(s.client-s.handler))
			codec = append(codec, usOf(s.handler-s.flight()))
			reqBytes = append(reqBytes, float64(s.reqBytes))
			respBytes = append(respBytes, float64(s.respBytes))
		}
	}
	r.set("server.net_us", median(net), "us")
	r.set("server.codec_us", median(codec), "us")
	r.set("server.req_bytes", mean(reqBytes), "B")
	r.set("server.resp_bytes", mean(respBytes), "B")
	return median(writeHandler)
}

func mean(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// queryLayer reads the program's flight records of the traced reads: time
// per stage and work per query, both as means over every query sent.
func (r *run) queryLayer() {
	var stage [trace.NumStages]time.Duration
	var tot trace.Totals
	var total, stageSum time.Duration
	queries := 0
	for _, s := range r.tr.reqs {
		queries += s.records
		total += s.total
		stageSum += s.stageSum
		for i, d := range s.stage {
			stage[i] += d
		}
		addTotals(&tot, s.totals)
	}
	n := float64(queries)
	per := func(st trace.Stage) float64 { return usOf(stage[st]) / n }
	r.set("gqr.stage.snapshot_us", per(trace.StageSnapshot), "us")
	r.set("gqr.stage.preprocess_us", per(trace.StagePreprocess), "us")
	r.set("gqr.stage.batch_us", per(trace.StageBatch), "us")
	r.set("gqr.untraced_us", usOf(total-stageSum)/n, "us")
	r.set("query.stage.sequence_us", per(trace.StageSequence), "us")
	r.set("query.stage.probe_us", per(trace.StageProbe), "us")
	r.set("query.stage.gather_us", per(trace.StageGather), "us")
	r.set("query.stage.rerank_us", per(trace.StageRerank), "us")
	r.set("query.stage.evaluate_us", per(trace.StageEvaluate), "us")
	r.set("query.stage.finalize_us", per(trace.StageFinalize), "us")
	r.set("trace.stage_sum_share", float64(stageSum)/float64(total), "ratio")

	r.set("query.buckets_generated", float64(tot.BucketsGenerated)/n, "count")
	r.set("query.buckets_probed", float64(tot.BucketsProbed)/n, "count")
	r.set("query.candidates", float64(tot.Candidates)/n, "count")
	r.set("query.early_abandoned", float64(tot.EarlyAbandoned)/n, "count")
	r.set("query.filtered", float64(tot.Filtered)/n, "count")
	r.set("query.adc_scored", float64(tot.ADCScored)/n, "count")
	r.set("query.reranked", float64(tot.Reranked)/n, "count")
	r.set("query.probe_hit_share", ratio(float64(tot.BucketsProbed), float64(tot.BucketsGenerated)), "ratio")
	r.set("query.abandon_share", ratio(float64(tot.EarlyAbandoned), float64(tot.Candidates)), "ratio")
	r.set("query.ns_per_bucket", ratio(float64(stage[trace.StageProbe]), float64(tot.BucketsGenerated)), "ns")
	r.set("query.ns_per_candidate", ratio(float64(stage[trace.StageEvaluate]), float64(tot.Candidates)), "ns")
	r.set("query.ns_per_adc", ratio(float64(stage[trace.StageRerank]), float64(tot.ADCScored)), "ns")
}

// ratio is a/b, and zero when the layer did no such work at all.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// scrape reads /metrics and returns every sample by its series name, and
// how long the scrape took.
func (r *run) scrape() (map[string]float64, time.Duration, error) {
	c := newClient(r.srv.URL)
	defer c.close()
	rep, err := c.do(http.MethodGet, "/metrics", nil, 0)
	if err != nil || rep.status != http.StatusOK {
		return nil, 0, fmt.Errorf("scrape /metrics: status %d: %v", rep.status, err)
	}
	series := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(rep.body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		cut := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[cut+1:], 64)
		if cut < 0 || err != nil {
			return nil, 0, fmt.Errorf("scrape /metrics: bad line %q", line)
		}
		series[line[:cut]] = v
	}
	return series, rep.lat, nil
}

// metricsLayer holds the registry to the benchmark's own counts: what the
// server says it answered, evaluated and added since the first scrape must
// be what the benchmark sent and what the flight records report.
func (r *run) metricsLayer(before map[string]float64) error {
	var after map[string]float64
	var scrapes []time.Duration
	for i := 0; i < 21; i++ {
		s, took, err := r.scrape()
		if err != nil {
			return err
		}
		after, scrapes = s, append(scrapes, took)
	}
	queriesSent, candidates, adds := 0, 0, 0
	for _, s := range r.tr.reqs {
		candidates += s.totals.Candidates
		switch s.kind {
		case opSearch:
			queriesSent += r.w.batch
		case opAdd, opUpdate:
			adds++
		}
	}
	delta := func(name string) float64 { return after[name] - before[name] }
	mismatch := math.Abs(delta("gqr_search_queries_total")-float64(queriesSent)) +
		math.Abs(delta("gqr_search_candidates_total")-float64(candidates)) +
		math.Abs(delta("gqr_index_adds")-float64(adds))
	r.attempted++
	if mismatch != 0 {
		r.fail(1, fmt.Errorf("registry disagrees with the benchmark's counts: queries %v/%d, candidates %v/%d, adds %v/%d",
			delta("gqr_search_queries_total"), queriesSent, delta("gqr_search_candidates_total"), candidates, delta("gqr_index_adds"), adds))
	}
	r.set("metrics.count_mismatch", mismatch, "count")
	r.set("metrics.scrape_us", p50us(scrapes), "us")
	r.set("metrics.series", float64(len(after)), "count")
	r.set("gqr.merge_ms_total", after["gqr_index_merge_seconds_sum"]*1000, "ms")
	r.set("gqr.purged", after["gqr_index_purged_total"], "count")
	return nil
}

// storageLayer reports what the writes left behind: the shape of the LSM
// and, for a durable index, of its data directory.
func (r *run) storageLayer(ix *gqr.Index) error {
	st := ix.Stats()
	r.set("gqr.seals", float64(st.Seals), "count")
	r.set("gqr.merges", float64(st.Merges), "count")
	r.set("gqr.segments_end", float64(st.Segments), "count")
	r.set("gqr.wal_bytes_end", float64(st.WALBytes), "B")
	files, size := 0, int64(0)
	if r.dataDir != "" {
		entries, err := os.ReadDir(r.dataDir)
		if err != nil {
			return fmt.Errorf("measure data directory: %w", err)
		}
		for _, e := range entries {
			// A background persist may retire a file after the listing.
			if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
				files++
				size += info.Size()
			}
		}
	}
	r.set("gqr.data_files_end", float64(files), "count")
	r.set("gqr.disk_bytes_per_live_vector_byte", float64(size)/float64(st.LiveItems*r.w.dim*4), "ratio")
	r.set("gqr.heap_end_mb", heapMB(), "MB")
	return nil
}

// writeCosts calls the write path without the server, on the index the
// traced writes left: one add (and so what the server adds to it), what the
// first search after an add pays to republish the snapshot, and a full
// compaction.
func (r *run) writeCosts(ix *gqr.Index, addHandlerUS float64) {
	budget := gqr.WithMaxCandidates(r.maxCand())
	adds := make([]time.Duration, r.sz.writes/10)
	for i := range adds {
		start := time.Now()
		if _, err := ix.Add(r.fresh()); err != nil {
			r.fail(1, fmt.Errorf("direct add: %w", err))
		}
		adds[i] = time.Since(start)
	}
	r.attempted += len(adds)
	r.set("gqr.add_us", p50us(adds), "us")
	r.set("server.write_codec_us", addHandlerUS-p50us(adds), "us")

	first, again := make([]time.Duration, r.sz.writes/50), make([]time.Duration, r.sz.writes/50)
	for i := range first {
		if _, err := ix.Add(r.fresh()); err != nil {
			r.fail(1, fmt.Errorf("direct add: %w", err))
		}
		start := time.Now()
		ix.Search(r.query(i), topK, budget)
		first[i] = time.Since(start)
		start = time.Now()
		ix.Search(r.query(i), topK, budget)
		again[i] = time.Since(start)
	}
	r.set("gqr.republish_us", p50us(first)-p50us(again), "us")

	start := time.Now()
	r.attempted++
	if err := ix.Compact(); err != nil {
		r.fail(1, fmt.Errorf("compact: %w", err))
	}
	r.set("gqr.compact_s", time.Since(start).Seconds(), "s")
}
