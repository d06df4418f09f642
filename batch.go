package gqr

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
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

// SearchBatch answers many queries as one call: queries is an nq×dim
// row-major block, and the result slice has one neighbor list per
// query. Every query runs the same path as Search, fanned out across
// GOMAXPROCS workers, and every worker searches the same read snapshot
// (captured once at the start of the batch), so a concurrent Add never
// affects a batch in flight — its vector appears in the snapshot the
// next call captures. Per-query results are bit-identical to sequential
// Search calls. The first per-query error, if any, fails the call; use
// SearchBatchWithStats to get per-query errors and work stats instead.
func (ix *Index) SearchBatch(queries []float32, k int, opts ...SearchOption) ([][]Neighbor, error) {
	results, err := ix.SearchBatchWithStats(queries, k, opts...)
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

// SearchBatchWithStats is SearchBatch with per-query outcomes: each
// entry carries the query's neighbors, its §2.2 work stats, and an Err
// set only for that query's failure. The call-level error is reserved
// for structural problems that invalidate the whole batch (bad block
// length, non-positive k).
//
// The batch takes one snapshot, and min(GOMAXPROCS, nq) workers each
// check out one pooled searcher and claim query indexes from a shared
// counter. Each query gets its own flight record, without a snapshot
// span: the batch captured one snapshot for all.
func (ix *Index) SearchBatchWithStats(queries []float32, k int, opts ...SearchOption) ([]BatchQueryResult, error) {
	dim := ix.live.Dim // immutable after Build
	if dim <= 0 || len(queries)%dim != 0 {
		return nil, fmt.Errorf("gqr: query block length %d not a multiple of dim %d", len(queries), dim)
	}
	if k <= 0 {
		return nil, fmt.Errorf("gqr: K must be positive, got %d", k)
	}
	sc := configOf(opts)
	snap, err := ix.currentSnapshot()
	if err != nil {
		return nil, err
	}
	nq := len(queries) / dim
	out := make([]BatchQueryResult, nq)
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), nq) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := snap.searcher()
			defer snap.release(s)
			for qi := int(next.Add(1) - 1); qi < nq; qi = int(next.Add(1) - 1) {
				tr := ix.rec.Begin(ix.methodName)
				res := &out[qi]
				res.Neighbors, res.Stats, res.Err = ix.searchOne(snap, s, queries[qi*dim:(qi+1)*dim], k, sc, tr)
				endTrace(ix.rec, tr, res.Err)
			}
		}()
	}
	wg.Wait()
	return out, nil
}
