package main

import (
	"encoding/json"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"gqr/internal/trace"
)

// chromeRequests is how many requests' spans the trace file keeps; the
// per-layer metrics are taken over all of them.
const chromeRequests = 5000

// requestSpans holds the three spans of one traced request, which share its
// id: the client's round trip, the handler inside it, and inside that the
// interval the program's own flight records of the request cover. A write
// has no flight record. The benchmark records all of this from its own
// files; no span is added inside the program.
type requestSpans struct {
	kind                   opKind
	clientStart            time.Time
	client                 time.Duration
	handlerStart           time.Time
	handler                time.Duration
	flightStart, flightEnd time.Time
	records                int // flight records of single queries
	stage                  [trace.NumStages]time.Duration
	stageSum, total        time.Duration
	totals                 trace.Totals
	reqBytes, respBytes    int
}

func (s *requestSpans) flight() time.Duration { return s.flightEnd.Sub(s.flightStart) }

// cover widens the flight interval to include one more flight record.
func (s *requestSpans) cover(start, end time.Time) {
	if s.flightStart.IsZero() || start.Before(s.flightStart) {
		s.flightStart = start
	}
	if end.After(s.flightEnd) {
		s.flightEnd = end
	}
}

// tracer collects the spans of a traced run in memory. One client sends one
// request at a time, so the request a flight record belongs to is the one
// the handler is serving; cur is zero between requests and while the
// benchmark calls the index directly. A nil tracer records nothing.
type tracer struct {
	cur  atomic.Uint64
	mu   sync.Mutex
	reqs []requestSpans // request id-1
}

// begin opens the client span of a request and returns its id.
func (t *tracer) begin(kind opKind) uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.reqs = append(t.reqs, requestSpans{kind: kind})
	return uint64(len(t.reqs))
}

func (t *tracer) clientDone(id uint64, start time.Time, lat time.Duration, reqBytes, respBytes int) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.reqs[id-1]
	s.clientStart, s.client, s.reqBytes, s.respBytes = start, lat, reqBytes, respBytes
}

// wrap records the handler span around the server's ServeHTTP.
func (t *tracer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, _ := strconv.ParseUint(r.Header.Get(reqIDHeader), 10, 64)
		t.cur.Store(id)
		start := time.Now()
		h.ServeHTTP(w, r)
		took := time.Since(start)
		t.cur.Store(0)
		if id == 0 {
			return
		}
		t.mu.Lock()
		s := &t.reqs[id-1]
		s.handlerStart, s.handler = start, took
		t.mu.Unlock()
	})
}

// observe receives every flight record the program finishes. Workers of a
// batch call it concurrently.
func (t *tracer) observe(tr *trace.Trace) {
	id := t.cur.Load()
	// A merge runs in the background and belongs to no request.
	if id == 0 || tr.StageDur[trace.StageCompact] > 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.reqs[id-1]
	if plan := tr.StageDur[trace.StageBatch]; plan > 0 {
		// The batch record is begun once the shared plan is done and covers
		// the time before it; its totals count queries and not work.
		s.cover(tr.Begin.Add(-plan), tr.Begin)
		s.stage[trace.StageBatch] += plan
		return
	}
	s.cover(tr.Begin, tr.Begin.Add(tr.Total))
	s.records++
	s.total += tr.Total
	s.stageSum += tr.StageSum()
	for i, d := range tr.StageDur {
		s.stage[i] += d
	}
	addTotals(&s.totals, tr.Totals)
}

// addTotals sums the work counters of flight records.
func addTotals(sum *trace.Totals, t trace.Totals) {
	sum.BucketsGenerated += t.BucketsGenerated
	sum.BucketsProbed += t.BucketsProbed
	sum.Candidates += t.Candidates
	sum.EarlyAbandoned += t.EarlyAbandoned
	sum.Filtered += t.Filtered
	sum.ADCScored += t.ADCScored
	sum.Reranked += t.Reranked
}

// writeChrome writes the spans of the first chromeRequests requests as
// Chrome trace_event JSON, one lane per layer.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string             `json:"name"`
		Ph   string             `json:"ph"`
		Ts   float64            `json:"ts"`
		Dur  float64            `json:"dur"`
		Pid  int                `json:"pid"`
		Tid  int                `json:"tid"`
		Args map[string]float64 `json:"args,omitempty"`
	}
	events := []event{}
	if len(t.reqs) == 0 {
		return nil
	}
	origin := t.reqs[0].clientStart
	ts := func(at time.Time) float64 { return usOf(at.Sub(origin)) }
	for i, s := range t.reqs[:min(len(t.reqs), chromeRequests)] {
		id := map[string]float64{"request": float64(i + 1)}
		events = append(events,
			event{Name: "client", Ph: "X", Ts: ts(s.clientStart), Dur: usOf(s.client), Pid: 1, Tid: 1, Args: id},
			event{Name: "handler", Ph: "X", Ts: ts(s.handlerStart), Dur: usOf(s.handler), Pid: 1, Tid: 2, Args: id})
		if s.records == 0 {
			continue
		}
		args := map[string]float64{"request": float64(i + 1), "queries": float64(s.records)}
		for st, d := range s.stage {
			if d > 0 {
				args[trace.Stage(st).String()+"_us"] = usOf(d)
			}
		}
		events = append(events, event{Name: "flight", Ph: "X", Ts: ts(s.flightStart), Dur: usOf(s.flight()), Pid: 1, Tid: 3, Args: args})
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ns"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
