package gqr

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"gqr/internal/query"
	"gqr/internal/trace"
)

// BatchQueryResult is one query's outcome inside a batch: its
// neighbors and work stats, or the error that failed this query alone.
// Structural problems that invalidate the whole batch (a block length
// that is not a multiple of dim, a non-positive k) are reported by the
// batch call itself, not per query.
type BatchQueryResult struct {
	Neighbors []Neighbor
	Stats     SearchStats
	Err       error
}

// batchState is the pooled whole-batch scratch of SearchBatchWithStats:
// the normalized query block (Angular metric), the amortized
// preprocessing plan and the cache-blocked processing order. One state
// serves one batch call at a time; pooling it makes a warmed batch
// allocate only its per-query result slices.
type batchState struct {
	norm  []float32
	plan  query.BatchPlan
	order []int
	dup   []int32
}

var batchPool = sync.Pool{New: func() any { return new(batchState) }}

// SearchBatch answers many queries as one unit of work: queries is an
// nq×dim row-major block, and the result slice has one neighbor list
// per query. The batch engine amortizes per-query preprocessing — one
// parallel matmul per hash table computes every query's projection, and
// re-ranked indexes build all ADC tables into one arena up front — then
// executes queries across GOMAXPROCS workers in a cache-blocked order
// (queries with nearby codes run together, so co-scheduled probes
// re-touch the same stretches of the data slab and PQ code column).
// Every worker searches the same read snapshot (captured once at the
// start of the batch), so a concurrent Add never affects a batch in
// flight — its vector appears in the snapshot the next call captures.
// Byte-identical queries inside a batch — the common case for server
// request coalescing, where a window collects concurrent requests for
// the same item — are searched once and their results copied.
// Per-query results are bit-identical to sequential Search calls. The
// first per-query error, if any, fails the call; use
// SearchBatchWithStats to get per-query errors and work stats instead.
func (ix *Index) SearchBatch(queries []float32, k int, opts ...SearchOption) ([][]Neighbor, error) {
	return batchNeighbors(ix.SearchBatchWithStats(queries, k, opts...))
}

// batchNeighbors reduces per-query batch outcomes to neighbor lists,
// failing on the first per-query error.
func batchNeighbors(results []BatchQueryResult, err error) ([][]Neighbor, error) {
	if err != nil {
		return nil, err
	}
	out := make([][]Neighbor, len(results))
	for i, r := range results {
		if r.Err != nil {
			return nil, r.Err
		}
		out[i] = r.Neighbors
	}
	return out, nil
}

// checkBatch rejects the structural problems that invalidate a whole
// batch: a block that is not a whole number of queries, a bad k.
func checkBatch(blockLen, dim, k int) error {
	if dim <= 0 || blockLen%dim != 0 {
		return fmt.Errorf("gqr: query block length %d not a multiple of dim %d", blockLen, dim)
	}
	if k <= 0 {
		return fmt.Errorf("gqr: K must be positive, got %d", k)
	}
	return nil
}

// SearchBatchWithStats is SearchBatch with per-query outcomes: each
// entry carries the query's neighbors, its §2.2 work stats, and an Err
// set only for that query's failure. The call-level error is reserved
// for structural problems that invalidate the whole batch (bad block
// length, non-positive k).
func (ix *Index) SearchBatchWithStats(queries []float32, k int, opts ...SearchOption) ([]BatchQueryResult, error) {
	return ix.searchBatch(queries, k, configOf(opts))
}

// searchBatch is SearchBatchWithStats over parsed options (a sharded
// fan-out hands each shard its own config).
func (ix *Index) searchBatch(queries []float32, k int, sc searchConfig) ([]BatchQueryResult, error) {
	dim := ix.live.Dim // immutable after Build
	if err := checkBatch(len(queries), dim, k); err != nil {
		return nil, err
	}
	// One snapshot for the whole batch: every worker probes the same
	// consistent view, however many Adds land while the batch runs.
	snap, err := ix.currentSnapshot()
	if err != nil {
		return nil, err
	}
	nq := len(queries) / dim
	out := make([]BatchQueryResult, nq)
	if nq == 0 {
		return out, nil
	}

	workers := max(1, min(runtime.GOMAXPROCS(0), nq))

	bs := batchPool.Get().(*batchState)
	defer batchPool.Put(bs)

	// Metric preprocessing for the whole block at once: the same
	// normalizeRow every sequential Angular search applies, just hoisted
	// out of the per-query path so the planner sees final query vectors.
	qblock := queries
	if ix.metric == Angular {
		bs.norm = append(bs.norm[:0], queries...)
		for i := 0; i < nq; i++ {
			normalizeRow(bs.norm[i*dim : (i+1)*dim])
		}
		qblock = bs.norm
	}

	// Amortized preprocessing: one parallel matmul per hash table plus
	// the shared ADC arena, then the cache-blocked processing order. The
	// StageBatch flight record attributes this shared work — it belongs
	// to no single query, so it gets its own record rather than being
	// charged (nq times over) to per-query preprocess spans.
	planStart := time.Now()
	query.PlanBatch(snap.view, qblock, nq, workers, &bs.plan)
	bs.order = bs.plan.Order(bs.order)
	// Duplicate suppression: coalesced batches routinely carry
	// byte-identical queries (concurrent requests for the same item are
	// what a coalescing window collects), and identical queries have
	// bit-identical results — so each distinct query runs once and its
	// duplicates copy the outcome after the workers drain.
	bs.dup = bs.plan.Duplicates(qblock, dim, bs.order, bs.dup)
	if btr := ix.rec.Begin("batch"); btr != nil {
		now := time.Now()
		btr.Record(trace.StageBatch, -1, planStart, now, trace.Work{Candidates: int32(nq)})
		btr.SetTotals(trace.Totals{K: k, Candidates: nq})
		ix.rec.Finish(btr, now.Sub(planStart))
	}

	// Workers claim contiguous chunks of the code-sorted order: one
	// atomic add per chunk, and the queries inside a chunk probe
	// overlapping or adjacent buckets, which is the cache-blocking win.
	// Each worker checks out one pooled searcher for its whole lifetime
	// and reuses one Prepared view across its queries.
	const chunk = 8
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := snap.searcher()
			defer snap.release(s)
			var prep query.Prepared
			for {
				lo := int(cursor.Add(chunk)) - chunk
				if lo >= nq {
					return
				}
				for _, qi := range bs.order[lo:min(lo+chunk, nq)] {
					if bs.dup[qi] >= 0 {
						continue
					}
					// Each member is its own flight record. It has no
					// snapshot span (the batch captured one snapshot for
					// all) and the shared projection work sits in the
					// batch record.
					tr := ix.rec.Begin(ix.methodName)
					res := &out[qi]
					res.Neighbors, res.Stats, res.Err = ix.searchOne(snap, s, bs.plan.Fill(qi, &prep), qblock[qi*dim:(qi+1)*dim], k, sc, tr)
					endTrace(ix.rec, tr, res.Err)
				}
			}
		}()
	}
	wg.Wait()
	// Duplicates copy their representative's outcome. Each copy gets its
	// own neighbor slice (callers own and may mutate their results); the
	// stats are the counters a sequential run of the same query would
	// have produced, because the engine is deterministic.
	for qi, rep := range bs.dup {
		if rep < 0 {
			continue
		}
		src := &out[rep]
		if src.Err != nil {
			out[qi].Err = src.Err
			continue
		}
		nbrs := make([]Neighbor, len(src.Neighbors))
		copy(nbrs, src.Neighbors)
		out[qi].Neighbors, out[qi].Stats = nbrs, src.Stats
	}
	return out, nil
}
