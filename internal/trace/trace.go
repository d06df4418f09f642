// Package trace is the query flight recorder's data model: a
// per-query Trace recording one span per pipeline-stage occurrence —
// snapshot acquire, query preprocessing, probe-sequence generation,
// per-table probing, candidate gather, batched evaluation and heap
// finalize — each span annotated with the work it performed in the
// paper's §2.2 units (buckets generated/probed, candidates,
// early-abandons).
//
// The package has no dependencies beyond the standard library and is
// designed around two cost regimes:
//
//   - Disabled: a nil *Trace. Every recording method is nil-safe, so
//     the instrumented pipeline pays only a nil/flag check per stage
//     boundary — no clock reads, no allocations.
//   - Enabled: traces come from a Recorder's sync.Pool, so the steady
//     state recycles span storage instead of allocating it. The span
//     list is capped (Config.MaxSpans); overflow increments Dropped
//     while the per-stage aggregates (StageDur, StageCount, StageWork)
//     keep accumulating, so totals stay exact even when the span
//     timeline is truncated.
package trace

import (
	"fmt"
	"time"
)

// Stage identifies one pipeline stage of the §2.2 querying model.
type Stage uint8

// The pipeline stages, in execution order.
const (
	StageSnapshot   Stage = iota // acquire (possibly republish) the read snapshot
	StagePreprocess              // query preprocessing (metric normalization)
	StageSequence                // probe-sequence generation (per-table init)
	StageProbe                   // sequence advance + merged best-first scan + bucket lookup
	StageGather                  // visited-filtered candidate gather
	StageRerank                  // ADC table build + quantized candidate scoring
	StageEvaluate                // batched exact-distance evaluation
	StageFinalize                // heap finalize (sort, sqrt, radius cut)
	StageCompact                 // one background segment merge (compaction traces only)
	// StageBatch is recorded by nothing: a batch runs each query as its
	// own record, with no shared preprocessing to attribute. It stays so
	// that readers indexing StageDur by it (and the "batch" stage label
	// of existing dashboards) keep working, and reads zero.
	StageBatch
)

// NumStages is the number of distinct stages.
const NumStages = int(StageBatch) + 1

var stageNames = [NumStages]string{
	"snapshot", "preprocess", "sequence", "probe", "gather", "rerank",
	"evaluate", "finalize", "compact", "batch",
}

// String returns the stage's wire name (used as the metrics label and
// the Chrome trace_event span name).
func (s Stage) String() string {
	if int(s) < NumStages {
		return stageNames[s]
	}
	return "unknown"
}

// MarshalJSON renders the stage as its name, so trace JSON is
// self-describing.
func (s Stage) MarshalJSON() ([]byte, error) {
	name := s.String()
	b := make([]byte, 0, len(name)+2)
	b = append(b, '"')
	b = append(b, name...)
	b = append(b, '"')
	return b, nil
}

// UnmarshalJSON parses a stage name back into its value, so trace JSON
// round-trips (clients decoding /debug/querytrace responses).
func (s *Stage) UnmarshalJSON(b []byte) error {
	if len(b) < 2 || b[0] != '"' || b[len(b)-1] != '"' {
		return fmt.Errorf("trace: stage %s is not a JSON string", b)
	}
	name := string(b[1 : len(b)-1])
	for i, n := range stageNames {
		if n == name {
			*s = Stage(i)
			return nil
		}
	}
	return fmt.Errorf("trace: unknown stage %q", name)
}

// Work annotates one span with the §2.2 work it performed. Zero fields
// mean "not applicable to this stage".
type Work struct {
	// Buckets counts probe-sequence emissions attributed to this span
	// (probed or found empty).
	Buckets int32 `json:"buckets,omitempty"`
	// Probed counts non-empty buckets evaluated in this span.
	Probed int32 `json:"probed,omitempty"`
	// Candidates counts distinct items gathered for evaluation.
	Candidates int32 `json:"candidates,omitempty"`
	// Abandoned counts candidates whose distance computation the
	// bounded kernel cut short.
	Abandoned int32 `json:"abandoned,omitempty"`
	// Filtered counts gathered ids dropped before evaluation —
	// tombstoned items and items rejected by a metadata filter.
	Filtered int32 `json:"filtered,omitempty"`
	// ADCScored counts candidates scored through the quantized
	// re-ranking stage's asymmetric-distance lookup table.
	ADCScored int32 `json:"adcScored,omitempty"`
	// Frontier is the largest number of pending flipping vectors the
	// query's generate-to-probe sequences held, summed over tables: the
	// state a long-code query carries, and why its probe spans are slow.
	// It rides on the closing probe span of a search.
	Frontier int32 `json:"frontier,omitempty"`
}

func (w *Work) add(o Work) {
	w.Buckets += o.Buckets
	w.Probed += o.Probed
	w.Candidates += o.Candidates
	w.Abandoned += o.Abandoned
	w.Filtered += o.Filtered
	w.ADCScored += o.ADCScored
	w.Frontier += o.Frontier
}

// Span is one timed stage occurrence. Start is the offset from the
// trace's Begin (monotonic clock), so spans from one trace lay out on
// a single timeline.
type Span struct {
	Stage Stage `json:"stage"`
	// Table is the hash table the span worked on, -1 for stages that
	// are not table-specific.
	Table int32         `json:"table"`
	Start time.Duration `json:"startNs"`
	Dur   time.Duration `json:"durNs"`
	Work  Work          `json:"work"`
}

// Totals are the whole-query result counters, copied from the search's
// final stats so a captured trace is self-contained.
type Totals struct {
	K                int  `json:"k"`
	Budget           int  `json:"budget,omitempty"`
	BucketsGenerated int  `json:"bucketsGenerated"`
	BucketsProbed    int  `json:"bucketsProbed"`
	Candidates       int  `json:"candidates"`
	EarlyAbandoned   int  `json:"earlyAbandoned"`
	Filtered         int  `json:"filtered,omitempty"`
	ADCScored        int  `json:"adcScored,omitempty"`
	Reranked         int  `json:"reranked,omitempty"`
	EarlyStopped     bool `json:"earlyStopped"`
}

// Trace is one query's flight record. A Trace is single-writer while
// the query runs; once handed to Recorder.Finish it is either
// published immutably into the ring buffer (readers may then access it
// concurrently) or recycled. All recording methods are nil-safe so the
// disabled path carries no clock reads.
type Trace struct {
	// ID is the query's sequence number in its Recorder (unique per
	// recorder).
	ID     uint64 `json:"id"`
	Method string `json:"method"`
	// Begin is the wall-clock start (it also carries the monotonic
	// reading all span offsets are relative to).
	Begin   time.Time     `json:"begin"`
	Total   time.Duration `json:"totalNs"`
	Sampled bool          `json:"sampled"`
	Slow    bool          `json:"slow"`
	Totals  Totals        `json:"totals"`
	// Per-stage aggregates; exact even when spans were dropped.
	StageDur   [NumStages]time.Duration `json:"-"`
	StageCount [NumStages]int32         `json:"-"`
	StageWork  [NumStages]Work          `json:"-"`
	Spans      []Span                   `json:"spans"`
	// Dropped counts spans discarded once the span cap was reached.
	Dropped int `json:"dropped,omitempty"`

	cursor   time.Time
	maxSpans int
}

// reset re-arms a pooled trace for a new query.
func (t *Trace) reset(id uint64, method string, maxSpans int, sampled bool) {
	now := time.Now()
	t.ID = id
	t.Method = method
	t.Begin = now
	t.Total = 0
	t.Sampled = sampled
	t.Slow = false
	t.Totals = Totals{}
	t.StageDur = [NumStages]time.Duration{}
	t.StageCount = [NumStages]int32{}
	t.StageWork = [NumStages]Work{}
	t.Spans = t.Spans[:0]
	t.Dropped = 0
	t.cursor = now
	t.maxSpans = maxSpans
}

// Mark closes the interval since the previous Mark (or Begin) as one
// span of the given stage. It is the coarse-grained recording entry
// point used outside the searcher (snapshot acquire, preprocessing).
// Nil-safe.
func (t *Trace) Mark(stage Stage, table int32) {
	if t == nil {
		return
	}
	now := time.Now()
	t.record(stage, table, t.cursor, now, Work{})
	t.cursor = now
}

// Record appends a span timed by an external clock (the searcher's
// stage clock, which owns the one-clock-read-per-boundary discipline).
// Nil-safe.
func (t *Trace) Record(stage Stage, table int32, start, end time.Time, w Work) {
	if t == nil {
		return
	}
	t.record(stage, table, start, end, w)
	t.cursor = end
}

func (t *Trace) record(stage Stage, table int32, start, end time.Time, w Work) {
	d := end.Sub(start)
	if d < 0 {
		d = 0
	}
	t.StageDur[stage] += d
	t.StageCount[stage]++
	t.StageWork[stage].add(w)
	if len(t.Spans) >= t.maxSpans {
		t.Dropped++
		return
	}
	t.Spans = append(t.Spans, Span{
		Stage: stage, Table: table,
		Start: start.Sub(t.Begin), Dur: d, Work: w,
	})
}

// SetTotals copies the query's final work counters into the trace.
// Nil-safe.
func (t *Trace) SetTotals(tot Totals) {
	if t == nil {
		return
	}
	t.Totals = tot
}

// StageSummary is one stage's aggregate in a trace summary.
type StageSummary struct {
	DurNs time.Duration `json:"durNs"`
	Count int32         `json:"count"`
	Work  Work          `json:"work"`
}

// Summary is the span-free JSON view of a trace, used by the
// flight-recorder list endpoint.
type Summary struct {
	ID      uint64                  `json:"id"`
	Method  string                  `json:"method"`
	Begin   time.Time               `json:"begin"`
	Total   time.Duration           `json:"totalNs"`
	Sampled bool                    `json:"sampled"`
	Slow    bool                    `json:"slow"`
	Totals  Totals                  `json:"totals"`
	Stages  map[string]StageSummary `json:"stages"`
	Spans   int                     `json:"spans"`
	Dropped int                     `json:"dropped,omitempty"`
}

// Summary returns the span-free aggregate view (stages with zero
// occurrences are omitted).
func (t *Trace) Summary() Summary {
	s := Summary{
		ID: t.ID, Method: t.Method, Begin: t.Begin, Total: t.Total,
		Sampled: t.Sampled, Slow: t.Slow, Totals: t.Totals,
		Stages: make(map[string]StageSummary, NumStages),
		Spans:  len(t.Spans), Dropped: t.Dropped,
	}
	for i := 0; i < NumStages; i++ {
		if t.StageCount[i] == 0 {
			continue
		}
		s.Stages[Stage(i).String()] = StageSummary{
			DurNs: t.StageDur[i], Count: t.StageCount[i], Work: t.StageWork[i],
		}
	}
	return s
}

// Detail is the full JSON view of a trace: the summary plus the span
// timeline.
type Detail struct {
	Summary
	SpanList []Span `json:"spanList"`
}

// Detail returns the trace with its full span timeline.
func (t *Trace) Detail() Detail {
	return Detail{Summary: t.Summary(), SpanList: t.Spans}
}

// StageSum returns the sum of all per-stage durations.
func (t *Trace) StageSum() time.Duration {
	var sum time.Duration
	for _, d := range t.StageDur {
		sum += d
	}
	return sum
}
