package trace

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Config sizes a Recorder and sets its two capture policies. The zero
// value of either policy field disables that policy; a Recorder with
// both disabled never hands out traces.
type Config struct {
	// SampleEvery enables uniform sampling: every SampleEvery-th query
	// (1 = every query) records a trace and is captured into the ring
	// buffer. Zero disables uniform sampling.
	SampleEvery int
	// SlowQuery enables threshold-triggered capture: every query
	// records a trace (the breakdown must exist before the query is
	// known slow), and those at or above this latency are always
	// retained. Zero disables slow-query capture.
	SlowQuery time.Duration
	// Capacity is the ring buffer's size in traces (default 64). New
	// captures overwrite the oldest.
	Capacity int
	// MaxSpans caps one trace's span timeline (default 1024); overflow
	// is counted in Trace.Dropped while stage aggregates stay exact.
	MaxSpans int
}

// DefCapacity and DefMaxSpans are the defaults applied when Config
// leaves the sizes zero.
const (
	DefCapacity = 64
	DefMaxSpans = 1024
)

// Stats are a Recorder's lifetime counters.
type Stats struct {
	// Queries is every query observed (traced or not).
	Queries uint64 `json:"queries"`
	// Traced is how many queries recorded a trace.
	Traced uint64 `json:"traced"`
	// Sampled / Slow / Captured count capture outcomes: Captured =
	// traces retained in the ring (a trace both sampled and slow
	// counts once in Captured).
	Sampled  uint64 `json:"sampled"`
	Slow     uint64 `json:"slow"`
	Captured uint64 `json:"captured"`
	// Config echo for the debug endpoint.
	SampleEvery int           `json:"sampleEvery"`
	SlowQuery   time.Duration `json:"slowQueryNs"`
	Capacity    int           `json:"capacity"`
}

// Recorder is the flight recorder: it decides per query whether to
// trace (Begin), applies the capture policies (Finish), and retains
// captured traces in a lock-free ring buffer that concurrent readers
// snapshot without blocking the query path.
//
// Capture is a single atomic pointer store into the ring slot; a
// published trace is never mutated again, so readers need no locks.
// Non-captured traces are recycled through a sync.Pool — the common
// case under slow-query capture, where every query traces but almost
// none is retained.
type Recorder struct {
	cfg Config

	seq      atomic.Uint64 // queries observed; doubles as the trace ID source
	traced   atomic.Uint64
	sampled  atomic.Uint64
	slow     atomic.Uint64
	captured atomic.Uint64

	head  atomic.Uint64
	slots []atomic.Pointer[Trace]

	pool sync.Pool
	obs  atomic.Pointer[func(*Trace)]
}

// NewRecorder builds a recorder; zero-valued sizes take the defaults.
func NewRecorder(cfg Config) *Recorder {
	if cfg.Capacity <= 0 {
		cfg.Capacity = DefCapacity
	}
	if cfg.MaxSpans <= 0 {
		cfg.MaxSpans = DefMaxSpans
	}
	r := &Recorder{cfg: cfg, slots: make([]atomic.Pointer[Trace], cfg.Capacity)}
	r.pool.New = func() any { return &Trace{} }
	return r
}

// Enabled reports whether any capture policy is active.
func (r *Recorder) Enabled() bool {
	return r != nil && (r.cfg.SampleEvery > 0 || r.cfg.SlowQuery > 0)
}

// Begin registers one query and returns its trace, or nil when this
// query is not traced (sampling missed and slow capture is off, or r is
// nil: tracing was never enabled). The returned trace is pooled
// scratch; hand it back via Finish.
func (r *Recorder) Begin(method string) *Trace {
	if r == nil {
		return nil
	}
	n := r.seq.Add(1)
	sampled := r.cfg.SampleEvery > 0 && n%uint64(r.cfg.SampleEvery) == 0
	if !sampled && r.cfg.SlowQuery <= 0 {
		return nil
	}
	tr := r.pool.Get().(*Trace)
	tr.reset(n, method, r.cfg.MaxSpans, sampled)
	r.traced.Add(1)
	return tr
}

// Recycle returns a non-published trace (one abandoned on error) to
// the pool. Nil-safe.
func (r *Recorder) Recycle(tr *Trace) {
	if tr != nil {
		r.pool.Put(tr)
	}
}

// Finish completes a trace begun with Begin: it stamps the total,
// applies the capture policies, invokes the observer (if any), and
// either publishes the trace into the ring buffer or recycles it.
// After Finish the caller must not touch the trace. Nil-safe.
func (r *Recorder) Finish(tr *Trace, total time.Duration) {
	if tr == nil {
		return
	}
	tr.Total = total
	tr.Slow = r.cfg.SlowQuery > 0 && total >= r.cfg.SlowQuery
	if tr.Sampled {
		r.sampled.Add(1)
	}
	if tr.Slow {
		r.slow.Add(1)
	}
	if f := r.obs.Load(); f != nil {
		(*f)(tr)
	}
	if !tr.Sampled && !tr.Slow {
		r.pool.Put(tr)
		return
	}
	r.captured.Add(1)
	i := r.head.Add(1) - 1
	// Publish: the trace is immutable from here on; the overwritten
	// trace (if any) stays valid for readers that already loaded it
	// and is reclaimed by the GC, never recycled.
	r.slots[i%uint64(len(r.slots))].Store(tr)
}

// SetObserver installs a callback invoked synchronously from Finish
// for every traced query (captured or not) — the hook that feeds
// per-stage latency histograms. The observer must not retain the
// trace: non-captured traces are recycled right after it returns.
func (r *Recorder) SetObserver(f func(*Trace)) {
	if f == nil {
		r.obs.Store(nil)
		return
	}
	r.obs.Store(&f)
}

// Traces snapshots the ring buffer, newest first. The returned traces
// are immutable; the slice is the caller's.
func (r *Recorder) Traces() []*Trace {
	out := make([]*Trace, 0, len(r.slots))
	for i := range r.slots {
		if tr := r.slots[i].Load(); tr != nil {
			out = append(out, tr)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID > out[b].ID })
	return out
}

// Trace returns the captured trace with the given ID, or nil.
func (r *Recorder) Trace(id uint64) *Trace {
	for i := range r.slots {
		if tr := r.slots[i].Load(); tr != nil && tr.ID == id {
			return tr
		}
	}
	return nil
}

// Stats returns the recorder's lifetime counters.
func (r *Recorder) Stats() Stats {
	return Stats{
		Queries:     r.seq.Load(),
		Traced:      r.traced.Load(),
		Sampled:     r.sampled.Load(),
		Slow:        r.slow.Load(),
		Captured:    r.captured.Load(),
		SampleEvery: r.cfg.SampleEvery,
		SlowQuery:   r.cfg.SlowQuery,
		Capacity:    len(r.slots),
	}
}
