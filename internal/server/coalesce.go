package server

import (
	"context"
	"sync"
	"time"

	"gqr"
)

// coalescer is the server-side request micro-batcher behind /search
// (opt-in via WithCoalescing): concurrent single-query requests with
// identical search parameters are gathered for up to a latency window
// and executed as one Index.SearchBatchWithStats call, so they share
// the batch engine's amortized preprocessing (one projection matmul
// per table, one ADC arena) instead of each paying it alone. Requests
// with different parameters never mix — the batch key is the full
// option tuple — and every query's result is bit-identical to a
// sequential search, so coalescing trades a bounded latency add for
// throughput, nothing else.
type coalescer struct {
	h        *Handler
	window   time.Duration
	maxBatch int

	mu      sync.Mutex
	pending map[batchKey]*pendingBatch
}

// batchKey is the full set of search parameters a /search or /batch
// request carries; only requests with equal keys may share a batch
// (they must be answerable by one SearchBatchWithStats call).
type batchKey struct {
	k          int
	maxCand    int
	maxBuckets int
	radius     float64
	earlyStop  bool
	tagMask    uint64
	stats      bool // includeStats: per-query timing is wanted
}

// opts renders the key as the search options it stands for.
func (k batchKey) opts() []gqr.SearchOption {
	var opts []gqr.SearchOption
	if k.maxCand > 0 {
		opts = append(opts, gqr.WithMaxCandidates(k.maxCand))
	}
	if k.maxBuckets > 0 {
		opts = append(opts, gqr.WithMaxBuckets(k.maxBuckets))
	}
	if k.radius > 0 {
		opts = append(opts, gqr.WithRadius(k.radius))
	}
	if k.earlyStop {
		opts = append(opts, gqr.WithEarlyStop())
	}
	if k.tagMask != 0 {
		opts = append(opts, gqr.WithTagMask(k.tagMask))
	}
	if k.stats {
		opts = append(opts, gqr.WithProfile())
	}
	return opts
}

// coalesceResult is one waiter's outcome, delivered on its buffered
// channel by the flusher.
type coalesceResult struct {
	nbrs []gqr.Neighbor
	st   gqr.SearchStats
	err  error
}

// pendingBatch accumulates the waiters of one key until its window
// timer fires or it reaches maxBatch.
type pendingBatch struct {
	key     batchKey
	queries []float32
	waiters []chan coalesceResult
	timer   *time.Timer
	flushAt time.Time
	flushed bool
}

func newCoalescer(h *Handler, window time.Duration, maxBatch int) *coalescer {
	if maxBatch <= 0 {
		maxBatch = 64
	}
	return &coalescer{
		h:        h,
		window:   window,
		maxBatch: maxBatch,
		pending:  make(map[batchKey]*pendingBatch),
	}
}

// submit enrolls one query under key and blocks until its batch is
// flushed (window expiry, batch full) or ctx is done. The query slice
// must not be mutated by the caller afterwards (it is referenced until
// the flush). A ctx with a deadline sooner than the current flush time
// shrinks the window for the whole batch — one request's deadline is
// never sacrificed to another's throughput.
func (c *coalescer) submit(ctx context.Context, key batchKey, q []float32) coalesceResult {
	ch := make(chan coalesceResult, 1)
	c.mu.Lock()
	b := c.pending[key]
	if b == nil {
		b = &pendingBatch{key: key, flushAt: time.Now().Add(c.window)}
		b.timer = time.AfterFunc(c.window, func() { c.timerFlush(b) })
		c.pending[key] = b
	}
	b.queries = append(b.queries, q...)
	b.waiters = append(b.waiters, ch)
	if dl, ok := ctx.Deadline(); ok && dl.Before(b.flushAt) {
		b.flushAt = dl
		b.timer.Reset(time.Until(dl))
	}
	full := len(b.waiters) >= c.maxBatch
	if full {
		// Inline flush: detach the batch under the lock, run it outside.
		b.flushed = true
		b.timer.Stop()
		delete(c.pending, key)
	}
	c.mu.Unlock()
	if full {
		c.flush(b)
	}
	select {
	case r := <-ch:
		return r
	case <-ctx.Done():
		// The flusher will still deliver into the buffered channel; the
		// result is simply dropped.
		return coalesceResult{err: ctx.Err()}
	}
}

// timerFlush is the window-expiry path: detach the batch if it is
// still pending (an inline flush may have raced the timer) and run it.
func (c *coalescer) timerFlush(b *pendingBatch) {
	c.mu.Lock()
	if b.flushed {
		c.mu.Unlock()
		return
	}
	b.flushed = true
	delete(c.pending, b.key)
	c.mu.Unlock()
	c.flush(b)
}

// flush executes one detached batch and distributes per-query results.
// Per-query errors reach only their own waiter; a structural error
// (which the handler's own validation makes unreachable in practice)
// fails every waiter.
func (c *coalescer) flush(b *pendingBatch) {
	n := len(b.waiters)
	c.h.cBatches.Inc()
	c.h.hBatchSize.Observe(float64(n))
	results, err := c.h.ix.SearchBatchWithStats(b.queries, b.key.k, b.key.opts()...)
	if err != nil {
		for _, ch := range b.waiters {
			ch <- coalesceResult{err: err}
		}
		return
	}
	for i, ch := range b.waiters {
		r := results[i]
		ch <- coalesceResult{nbrs: r.Neighbors, st: r.Stats, err: r.Err}
	}
}
