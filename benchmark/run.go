package main

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"gqr"
	"gqr/internal/server"
)

// tally counts what one caller attempted and what failed, one per query: a
// /batch of 32 is 32 attempts. The first failure is kept for the report.
type tally struct {
	attempted, failed int
	first             error
}

func (t *tally) fail(n int, err error) {
	t.failed += n
	if t.first == nil {
		t.first = err
	}
}

func (t *tally) merge(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	if t.first == nil {
		t.first = o.first
	}
}

// run is one workload on one seed: the generated inputs, the model of what
// the index must hold, the index, and the server in front of it.
type run struct {
	w    workload
	sz   sizing
	seed int64
	dir  string // scratch directory of this run, removed at the end
	// tr records spans in a traced run and is nil otherwise.
	tr *tracer

	base, queries, extra []float32
	nextExtra            int
	model                *oracle
	truth                [][]int
	readBodies           [][]byte

	ix      *gqr.Index
	dataDir string // of a durable index
	srv     *httptest.Server

	tally
	recall  float64 // recall@10 over the truth queries
	metrics map[string]metric
}

// result is what one run reports.
type result struct {
	Workload     string            `json:"workload"`
	Seed         int64             `json:"seed"`
	Seconds      float64           `json:"seconds"`
	Trace        bool              `json:"trace"`
	Correct      bool              `json:"correct"`
	Attempted    int               `json:"attempted"`
	Failed       int               `json:"failed"`
	FirstFailure string            `json:"first_failure,omitempty"`
	Metrics      map[string]metric `json:"metrics"`
}

func discardLogger() *slog.Logger {
	// The same handler type and level as gqr-server, so that formatting
	// the request log line stays in the measured path.
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// The smoke test's sizing overrides three of the workload's sizes.
func orDefault(override, def int) int {
	if override > 0 {
		return override
	}
	return def
}

func (r *run) n() int            { return orDefault(r.sz.n, r.w.n) }
func (r *run) maxCand() int      { return orDefault(r.sz.maxCand, r.w.maxCand) }
func (r *run) truthQueries() int { return orDefault(r.sz.truthQueries, r.w.truthQueries) }

func (r *run) query(i int) []float32 {
	return r.queries[(i%r.sz.queries)*r.w.dim:][:r.w.dim]
}

func (r *run) readPath() string {
	if r.w.batch > 1 {
		return "/batch"
	}
	return "/search"
}

// readQueries returns the indexes of the queries that read request i
// carries; requests wrap around the query set.
func (r *run) readQueries(i int) []int {
	qs := make([]int, r.w.batch)
	for j := range qs {
		qs[j] = (i*r.w.batch + j) % r.sz.queries
	}
	return qs
}

func (r *run) set(name string, value float64, unit string) {
	r.metrics[name] = metric{Value: value, Unit: unit}
}

// setUp generates the inputs, builds the index, answers the truth queries
// exactly, starts the server and sends every read request once. It returns
// how long all of that took.
func (r *run) setUp(mixedOps int) (time.Duration, error) {
	start := time.Now()
	w, dim := r.w, r.w.dim
	mix := newMixture(dim, r.seed)
	r.base = mix.draw(r.n())
	r.queries = mix.draw(r.sz.queries)
	// Adds and updates each take one fresh vector: 17 in 100 mixed
	// operations, 85 in 100 tail writes, and every direct add of a traced
	// run.
	r.extra = mix.draw(mixedOps/4 + r.sz.writes + r.sz.writes/5)

	ix, err := gqr.Build(r.base, dim, w.build...)
	if err != nil {
		return 0, fmt.Errorf("build: %w", err)
	}
	r.ix = ix
	if w.durable {
		r.dataDir = filepath.Join(r.dir, "data")
		if err := ix.EnableDurability(r.dataDir); err != nil {
			return 0, fmt.Errorf("enable durability: %w", err)
		}
	}
	r.model = newOracle(r.base, dim)
	r.truth = r.model.groundTruth(r.queries, r.truthQueries(), topK)

	r.srv = httptest.NewServer(server.New(ix, server.WithLogger(discardLogger())))

	reqs := (r.sz.queries + w.batch - 1) / w.batch
	r.readBodies = make([][]byte, reqs)
	for i := range r.readBodies {
		var body any
		if w.batch > 1 {
			br := server.BatchRequest{K: topK, MaxCandidates: r.maxCand()}
			for _, q := range r.readQueries(i) {
				br.Queries = append(br.Queries, r.query(q))
			}
			body = br
		} else {
			body = server.SearchRequest{Query: r.query(i), K: topK, MaxCandidates: r.maxCand()}
		}
		if r.readBodies[i], err = json.Marshal(body); err != nil {
			return 0, err
		}
	}

	// Warm-up is one pass over the query set; it is also where recall is
	// taken, so recall never depends on how many requests a phase fits.
	c := newClient(r.srv.URL)
	defer c.close()
	var recallSum float64
	for i := range r.readBodies {
		recallSum += r.read(c, i, &r.tally).recall
	}
	if !w.durable {
		r.setRecall(recallSum)
	}
	return time.Since(start), nil
}

func (r *run) setRecall(sum float64) {
	r.recall = sum / float64(r.truthQueries())
	if r.sz.recallFloors && r.recall < r.w.recallFloor {
		r.fail(r.truthQueries(), fmt.Errorf("recall@10 %.4f is below the floor %.2f", r.recall, r.w.recallFloor))
	}
}

func (r *run) tearDown() {
	if r.srv != nil {
		r.srv.Close()
	}
	if r.ix != nil {
		r.ix.Close()
	}
	os.RemoveAll(r.dir)
}

// readOutcome is what one read request came to.
type readOutcome struct {
	lat time.Duration
	// recall is the summed recall of the truth queries the request carried.
	recall float64
}

// send is one traced round trip: the request id is drawn before it and the
// client span closed after it.
func (r *run) send(c *client, kind opKind, method, path string, body []byte) (reply, error) {
	id := r.tr.begin(kind)
	rep, err := c.do(method, path, body, id)
	r.tr.clientDone(id, rep.start, rep.lat, len(body), len(rep.body))
	return rep, err
}

// read sends read request i and validates every answer in the reply.
func (r *run) read(c *client, i int, t *tally) readOutcome {
	i %= len(r.readBodies)
	qs := r.readQueries(i)
	t.attempted += len(qs)
	rep, err := r.send(c, opSearch, http.MethodPost, r.readPath(), r.readBodies[i])
	out := readOutcome{lat: rep.lat}
	reply := rep.body
	if err == nil && rep.status != http.StatusOK {
		err = fmt.Errorf("status %d: %s", rep.status, reply)
	}
	var answers [][]server.NeighborJSON
	if err == nil {
		if r.w.batch > 1 {
			var br server.BatchResponse
			if err = json.Unmarshal(reply, &br); err == nil && len(br.Results) != len(qs) {
				err = fmt.Errorf("%d results for %d queries", len(br.Results), len(qs))
			}
			for _, e := range br.Results {
				if e.Error != "" && err == nil {
					err = fmt.Errorf("query failed: %s", e.Error)
				}
				answers = append(answers, e.Neighbors)
			}
		} else {
			var sr server.SearchResponse
			err = json.Unmarshal(reply, &sr)
			answers = [][]server.NeighborJSON{sr.Neighbors}
		}
	}
	if err != nil {
		t.fail(len(qs), fmt.Errorf("%s request %d: %w", r.readPath(), i, err))
		return out
	}
	for j, q := range qs {
		if err := r.model.check(r.query(q), answers[j], topK); err != nil {
			t.fail(1, fmt.Errorf("query %d: %w", q, err))
			continue
		}
		if q < len(r.truth) {
			out.recall += recall(r.truth[q], answers[j])
		}
	}
	return out
}

// readPhase runs closed-loop clients against the read endpoint for d and
// returns every request's sample. Each client starts at its own offset into
// the request set so that no two send the same request at once.
func (r *run) readPhase(clients int, d time.Duration) []sample {
	var mu sync.Mutex
	var all []sample
	var wg sync.WaitGroup
	start := time.Now()
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c := newClient(r.srv.URL)
			defer c.close()
			var t tally
			var mine []sample
			for i := ci * len(r.readBodies) / clients; ; i++ {
				out := r.read(c, i, &t)
				at := time.Since(start)
				if at >= d {
					break
				}
				mine = append(mine, sample{at: at, lat: out.lat})
			}
			mu.Lock()
			all = append(all, mine...)
			r.merge(t)
			mu.Unlock()
		}(ci)
	}
	wg.Wait()
	return all
}

// fresh returns the next vector that no request has carried yet.
func (r *run) fresh() []float32 {
	v := r.extra[r.nextExtra*r.w.dim:][:r.w.dim]
	r.nextExtra++
	return v
}

// write sends one write request, checks the acknowledgement against the
// model and applies it to the model. rng picks the victim of a delete or an
// update among the ids that are live.
func (r *run) write(c *client, kind opKind, rng *rand.Rand) time.Duration {
	r.attempted++
	var method, path string
	var body []byte
	var vec []float32
	victim := -1
	wantStatus := http.StatusOK
	switch kind {
	case opAdd:
		vec = r.fresh()
		method, path = http.MethodPost, "/add"
		body, _ = json.Marshal(server.AddRequest{Vector: vec})
	case opDelete:
		victim = r.model.live[rng.Intn(len(r.model.live))]
		method, path, wantStatus = http.MethodDelete, "/vector/"+strconv.Itoa(victim), http.StatusNoContent
	case opUpdate:
		victim = r.model.live[rng.Intn(len(r.model.live))]
		vec = r.fresh()
		method, path = http.MethodPut, "/vector/"+strconv.Itoa(victim)
		body, _ = json.Marshal(server.UpdateRequest{Vector: vec})
	}
	rep, err := r.send(c, kind, method, path, body)
	if err == nil && rep.status != wantStatus {
		err = fmt.Errorf("status %d: %s", rep.status, rep.body)
	}
	if err != nil {
		r.fail(1, fmt.Errorf("%s %s: %w", method, path, err))
		return rep.lat
	}
	// The write is acknowledged: from here on the index must hold it.
	if victim >= 0 {
		r.model.remove(victim)
	}
	if vec != nil {
		var ack server.AddResponse // an update's reply has the same shape
		want := r.model.add(vec)
		if err := json.Unmarshal(rep.body, &ack); err != nil || ack.ID != want {
			r.fail(1, fmt.Errorf("%s %s: acknowledged id %d (%v), model says %d", method, path, ack.ID, err, want))
		}
	}
	return rep.lat
}

// writeTail sends the writes that follow the read phases of a read-only
// workload, from one client.
func (r *run) writeTail(rng *rand.Rand) []sample {
	c := newClient(r.srv.URL)
	defer c.close()
	samples := make([]sample, 0, r.sz.writes)
	start := time.Now()
	for i := 0; i < r.sz.writes; i++ {
		kind := opAdd
		switch p := rng.Intn(100); {
		case p >= 85:
			kind = opUpdate
		case p >= 70:
			kind = opDelete
		}
		lat := r.write(c, kind, rng)
		samples = append(samples, sample{at: time.Since(start), lat: lat})
	}
	return samples
}

// mixedSequence sends the fixed sequence of reads and writes from one
// client and returns the samples of each kind and the sequence's length.
func (r *run) mixedSequence(ops []opKind, rng *rand.Rand) (reads, writes []sample, total time.Duration) {
	c := newClient(r.srv.URL)
	defer c.close()
	nextRead := 0
	start := time.Now()
	for _, kind := range ops {
		if kind == opSearch {
			out := r.read(c, nextRead, &r.tally)
			nextRead++
			reads = append(reads, sample{at: time.Since(start), lat: out.lat})
		} else {
			lat := r.write(c, kind, rng)
			writes = append(writes, sample{at: time.Since(start), lat: lat})
		}
	}
	return reads, writes, time.Since(start)
}

// recallNow takes recall over the truth queries against what is live now.
func (r *run) recallNow() {
	r.truth = r.model.groundTruth(r.queries, r.truthQueries(), topK)
	c := newClient(r.srv.URL)
	defer c.close()
	var sum float64
	for i := 0; i*r.w.batch < r.truthQueries(); i++ {
		sum += r.read(c, i, &r.tally).recall
	}
	r.setRecall(sum)
}

func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func (r *run) latencyMetrics(prefix string, samples []sample, phase time.Duration, windows, tailWindows int) error {
	p50, err := windowed(samples, phase, windows, 50, r.sz.minBeyond)
	if err != nil {
		return fmt.Errorf("%s: %w", prefix, err)
	}
	p99, err := windowed(samples, phase, min(tailWindows, windows), 99, r.sz.minBeyond)
	if err != nil {
		return fmt.Errorf("%s: %w", prefix, err)
	}
	r.metrics[prefix+"_p50_us"], r.metrics[prefix+"_p99_us"] = p50, p99
	return nil
}

// mixedLength is the number of operations of the mixed sequence, and zero
// for a workload that has none.
func (r *run) mixedLength(measure time.Duration) int {
	if !r.w.durable {
		return 0
	}
	return int(measure.Seconds() * float64(r.sz.mixedOpsPerSecond))
}

// endToEnd is the untraced run: what a client of the server sees.
func (r *run) endToEnd(measure time.Duration) error {
	ops := r.mixedLength(measure)
	setup, err := r.setUp(ops)
	if err != nil {
		return err
	}
	r.set("setup_s", setup.Seconds(), "s")
	r.set("heap_mb", heapMB(), "MB")
	rng := rand.New(rand.NewSource(r.seed + 1))
	var recovered time.Duration
	if r.w.durable {
		recovered, err = r.mixedPhases(mixedOps(rng, ops), rng)
	} else {
		recovered, err = r.readOnlyPhases(measure/2, rng)
	}
	r.set("recall_at_10", r.recall, "ratio")
	r.set("recover_s", recovered.Seconds(), "s")
	return err
}

// mixedPhases is the measured part of the mixed workload: the sequence,
// recall over what it left live, and the crash. It returns the midmean
// recovery.
func (r *run) mixedPhases(ops []opKind, rng *rand.Rand) (time.Duration, error) {
	reads, writes, total := r.mixedSequence(ops, rng)
	if err := r.latencyMetrics("request", reads, total, r.sz.windows, r.w.tailWindows); err != nil {
		return 0, err
	}
	if err := r.latencyMetrics("write", writes, total, r.sz.windows, r.w.tailWindows); err != nil {
		return 0, err
	}
	r.metrics["queries_per_s"] = ratePerSecond(reads, total, r.sz.windows, 1)
	r.recallNow()
	return r.recoverDurable()
}

// readOnlyPhases is the measured part of a read-only workload: the latency
// phase, the throughput phase, the reloads and the write tail. It returns
// the midmean reload.
func (r *run) readOnlyPhases(phase time.Duration, rng *rand.Rand) (time.Duration, error) {
	if err := r.latencyMetrics("request", r.readPhase(1, phase), phase, r.sz.windows, r.w.tailWindows); err != nil {
		return 0, err
	}
	// Never more clients than cores: the clients share them with the server.
	r.metrics["queries_per_s"] = ratePerSecond(r.readPhase(runtime.NumCPU(), phase), phase, r.sz.windows, r.w.batch)
	reloaded, err := r.reload()
	if err != nil {
		return 0, err
	}
	start := time.Now()
	writes := r.writeTail(rng)
	return reloaded, r.latencyMetrics("write", writes, time.Since(start), 1, 1)
}

// reload is what a restart costs a read-only deployment: the index is saved
// once and loaded back several times. It returns the midmean load.
func (r *run) reload() (time.Duration, error) {
	path := filepath.Join(r.dir, "index.gqr")
	if err := r.ix.SaveFile(path); err != nil {
		return 0, fmt.Errorf("save: %w", err)
	}
	var took []float64
	for i := 0; i < r.sz.recoveries; i++ {
		start := time.Now()
		ix, err := gqr.LoadFile(path, r.base, r.w.dim)
		if err != nil {
			return 0, fmt.Errorf("load: %w", err)
		}
		took = append(took, time.Since(start).Seconds())
		r.attempted++
		if got := ix.Stats().Items; got != r.model.items() {
			r.fail(1, fmt.Errorf("reloaded index holds %d items, want %d", got, r.model.items()))
		}
		ix.Close()
	}
	return time.Duration(midmean(took) * float64(time.Second)), nil
}
