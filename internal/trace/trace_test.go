package trace

import (
	"bytes"
	"encoding/json"
	"io"
	"sync"
	"testing"
	"time"
)

// record one synthetic query against r: a fixed set of spans via the
// public recording surface, finished with the given total.
func recordQuery(r *Recorder, total time.Duration) *Trace {
	tr := r.Begin("gqr")
	if tr == nil {
		return nil
	}
	tr.Mark(StageSnapshot, -1)
	tr.Mark(StageSequence, -1)
	now := time.Now()
	tr.Record(StageProbe, 0, now, now.Add(time.Microsecond), Work{Buckets: 3, Probed: 1})
	tr.Record(StageGather, 0, now.Add(time.Microsecond), now.Add(2*time.Microsecond), Work{Candidates: 7})
	tr.Record(StageEvaluate, 0, now.Add(2*time.Microsecond), now.Add(4*time.Microsecond), Work{Abandoned: 2})
	tr.Mark(StageFinalize, -1)
	tr.SetTotals(Totals{K: 10, Candidates: 7, BucketsGenerated: 3, BucketsProbed: 1, EarlyAbandoned: 2})
	r.Finish(tr, total)
	return tr
}

func TestStageNames(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < NumStages; i++ {
		name := Stage(i).String()
		if name == "" || name == "unknown" {
			t.Fatalf("stage %d has no name", i)
		}
		if seen[name] {
			t.Fatalf("duplicate stage name %q", name)
		}
		seen[name] = true
	}
	if Stage(200).String() != "unknown" {
		t.Fatal("out-of-range stage must stringify as unknown")
	}
	b, err := json.Marshal(StageProbe)
	if err != nil || string(b) != `"probe"` {
		t.Fatalf("StageProbe JSON = %s, %v", b, err)
	}
}

func TestNilTraceIsSafe(t *testing.T) {
	var tr *Trace
	tr.Mark(StageSnapshot, -1)
	tr.Record(StageProbe, 0, time.Now(), time.Now(), Work{})
	tr.SetTotals(Totals{})
}

func TestRecorderSampling(t *testing.T) {
	r := NewRecorder(Config{SampleEvery: 3, Capacity: 16})
	var traced int
	for i := 0; i < 9; i++ {
		if tr := recordQuery(r, time.Millisecond); tr != nil {
			traced++
		}
	}
	if traced != 3 {
		t.Fatalf("sampled %d of 9 queries, want 3 (1-in-3)", traced)
	}
	st := r.Stats()
	if st.Queries != 9 || st.Traced != 3 || st.Sampled != 3 || st.Captured != 3 {
		t.Fatalf("stats %+v", st)
	}
	if got := len(r.Traces()); got != 3 {
		t.Fatalf("ring holds %d traces, want 3", got)
	}
}

func TestRecorderSlowCapture(t *testing.T) {
	r := NewRecorder(Config{SlowQuery: time.Second, Capacity: 16})
	// Every query traces under a slow threshold, but only slow ones are
	// retained.
	if tr := recordQuery(r, time.Millisecond); tr == nil {
		t.Fatal("slow-capture recorder must trace every query")
	}
	recordQuery(r, 2*time.Second)
	st := r.Stats()
	if st.Traced != 2 || st.Slow != 1 || st.Captured != 1 {
		t.Fatalf("stats %+v", st)
	}
	traces := r.Traces()
	if len(traces) != 1 || !traces[0].Slow || traces[0].Total != 2*time.Second {
		t.Fatalf("captured %+v", traces)
	}
}

func TestRecorderDisabledTracesNothing(t *testing.T) {
	r := NewRecorder(Config{})
	if r.Enabled() {
		t.Fatal("zero-policy recorder reports Enabled")
	}
	if tr := r.Begin("gqr"); tr != nil {
		t.Fatal("zero-policy recorder handed out a trace")
	}
	var nilRec *Recorder
	if nilRec.Enabled() {
		t.Fatal("nil recorder reports Enabled")
	}
}

func TestRingWraparoundKeepsNewest(t *testing.T) {
	r := NewRecorder(Config{SampleEvery: 1, Capacity: 4})
	for i := 0; i < 10; i++ {
		recordQuery(r, time.Millisecond)
	}
	traces := r.Traces()
	if len(traces) != 4 {
		t.Fatalf("ring holds %d, want capacity 4", len(traces))
	}
	for i, tr := range traces {
		want := uint64(10 - i) // newest first: IDs 10,9,8,7
		if tr.ID != want {
			t.Fatalf("trace[%d].ID = %d, want %d", i, tr.ID, want)
		}
	}
	if r.Trace(10) == nil || r.Trace(6) != nil {
		t.Fatal("Trace(id) lookup disagrees with ring contents")
	}
}

func TestSpanCapDropsButAggregatesStayExact(t *testing.T) {
	r := NewRecorder(Config{SampleEvery: 1, MaxSpans: 4, Capacity: 4})
	tr := r.Begin("gqr")
	now := time.Now()
	for i := 0; i < 10; i++ {
		tr.Record(StageProbe, 0, now, now.Add(time.Microsecond), Work{Buckets: 1})
	}
	if len(tr.Spans) != 4 {
		t.Fatalf("span cap leaked: %d spans", len(tr.Spans))
	}
	if tr.Dropped != 6 {
		t.Fatalf("Dropped = %d, want 6", tr.Dropped)
	}
	if tr.StageCount[StageProbe] != 10 || tr.StageWork[StageProbe].Buckets != 10 {
		t.Fatalf("aggregates lost dropped spans: count %d, buckets %d",
			tr.StageCount[StageProbe], tr.StageWork[StageProbe].Buckets)
	}
	if tr.StageDur[StageProbe] != 10*time.Microsecond {
		t.Fatalf("StageDur = %v", tr.StageDur[StageProbe])
	}
	r.Finish(tr, time.Millisecond)
}

func TestObserverSeesEveryTracedQuery(t *testing.T) {
	r := NewRecorder(Config{SlowQuery: time.Hour, Capacity: 4})
	var observed int
	r.SetObserver(func(tr *Trace) {
		observed++
		if tr.StageCount[StageProbe] == 0 {
			t.Error("observer saw a trace without probe spans")
		}
	})
	for i := 0; i < 5; i++ {
		recordQuery(r, time.Millisecond) // never slow => never captured
	}
	if observed != 5 {
		t.Fatalf("observer saw %d traces, want 5", observed)
	}
	if got := r.Stats().Captured; got != 0 {
		t.Fatalf("captured %d, want 0", got)
	}
	r.SetObserver(nil)
	recordQuery(r, time.Millisecond)
	if observed != 5 {
		t.Fatal("cleared observer still invoked")
	}
}

func TestSummaryAndDetail(t *testing.T) {
	r := NewRecorder(Config{SampleEvery: 1, Capacity: 4})
	tr := recordQuery(r, 42*time.Millisecond)
	s := tr.Summary()
	if s.Total != 42*time.Millisecond || s.Totals.Candidates != 7 {
		t.Fatalf("summary %+v", s)
	}
	for _, stage := range []string{"snapshot", "sequence", "probe", "gather", "evaluate", "finalize"} {
		if _, ok := s.Stages[stage]; !ok {
			t.Fatalf("summary missing stage %q: %v", stage, s.Stages)
		}
	}
	d := tr.Detail()
	if len(d.SpanList) != s.Spans || s.Spans == 0 {
		t.Fatalf("detail spans %d, summary %d", len(d.SpanList), s.Spans)
	}
	if _, err := json.Marshal(d); err != nil {
		t.Fatalf("detail JSON: %v", err)
	}
}

func TestWriteChromeValidJSON(t *testing.T) {
	r := NewRecorder(Config{SampleEvery: 1, Capacity: 4})
	tr := recordQuery(r, time.Millisecond)
	var buf bytes.Buffer
	if err := WriteChrome(&buf, tr); err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("chrome output is not valid JSON: %v\n%s", err, buf.String())
	}
	stages := map[string]bool{}
	for _, ev := range f.TraceEvents {
		ph, _ := ev["ph"].(string)
		name, _ := ev["name"].(string)
		if ph != "X" && ph != "M" {
			t.Fatalf("unexpected ph %q in %v", ph, ev)
		}
		if ph == "X" {
			stages[name] = true
			if _, ok := ev["ts"].(float64); !ok {
				t.Fatalf("X event without ts: %v", ev)
			}
		}
	}
	for _, want := range []string{"snapshot", "sequence", "probe", "gather", "evaluate", "finalize"} {
		if !stages[want] {
			t.Fatalf("chrome export missing stage %q (got %v)", want, stages)
		}
	}
	// Empty export must still be a valid object with an array.
	buf.Reset()
	if err := WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var empty map[string]any
	if err := json.Unmarshal(buf.Bytes(), &empty); err != nil {
		t.Fatal(err)
	}
	if _, ok := empty["traceEvents"].([]any); !ok {
		t.Fatalf("empty export: %s", buf.String())
	}
}

// TestTraceStressRecorder hammers one recorder from concurrent
// writers (Begin/Record/Finish), ring readers (Traces/Summary/chrome
// export) and observer churn; run under -race it is the proof the
// capture path is lock-free-safe.
func TestTraceStressRecorder(t *testing.T) {
	r := NewRecorder(Config{SampleEvery: 2, SlowQuery: time.Nanosecond, Capacity: 8, MaxSpans: 64})
	r.SetObserver(func(tr *Trace) { _ = tr.StageSum() })
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				recordQuery(r, time.Duration(i)*time.Microsecond)
			}
		}()
	}
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, tr := range r.Traces() {
					_ = tr.Summary()
					_ = tr.Detail()
				}
				_ = WriteChrome(io.Discard, r.Traces()...)
				_ = r.Stats()
			}
		}()
	}
	// Let writers finish, then release the readers.
	done := make(chan struct{})
	go func() {
		defer close(done)
		wgWriters := 4 * 500
		for r.Stats().Queries < uint64(wgWriters) {
			time.Sleep(time.Millisecond)
		}
	}()
	<-done
	close(stop)
	wg.Wait()
	if got := len(r.Traces()); got != 8 {
		t.Fatalf("ring holds %d traces after stress, want full capacity 8", got)
	}
}
