package gqr

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"gqr/internal/trace"
)

// ShardedIndex partitions a dataset across several independent indexes
// and fans every query out to all of them, merging the per-shard
// results — a single-process model of the distributed deployment the
// paper names as future work ("extend GQR to the distributed setting").
// Shards train their own hash functions, so each adapts to its
// partition's distribution, and shard searches run concurrently.
type ShardedIndex struct {
	shards []*Index
	// base[i] is the global id of shard i's first vector (contiguous
	// round-robin-free partitioning keeps id mapping O(1)).
	base []int
	dim  int

	methodName string
	// rec is the flight recorder for the whole fan-out; shards carry no
	// recorders of their own (BuildSharded strips tracing options from
	// shard builds), so a traced query yields one trace with per-shard
	// legs rather than uncorrelated per-shard traces.
	rec *trace.Recorder
}

// BuildSharded splits the n×dim block into the given number of
// contiguous shards and builds one index per shard with the same
// options. Shard training runs sequentially (training dominates memory);
// searching fans out concurrently. Tracing options apply to the sharded
// index as a whole: one recorder observes fan-out queries, and each
// captured trace carries per-shard spans attributing latency to the
// slow shard.
func BuildSharded(vectors []float32, dim, shards int, opts ...Option) (*ShardedIndex, error) {
	if shards < 1 {
		return nil, fmt.Errorf("gqr: shard count %d < 1", shards)
	}
	if dim <= 0 || len(vectors) == 0 || len(vectors)%dim != 0 {
		return nil, fmt.Errorf("gqr: vector block length %d not a positive multiple of dim %d", len(vectors), dim)
	}
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	n := len(vectors) / dim
	// Every learner needs at least two training points per shard.
	// Refusing beats silently building fewer shards than requested: a
	// caller sizing fan-out or capacity by shard count must be able to
	// rely on Shards() == the count it asked for.
	if n < 2*shards {
		return nil, fmt.Errorf("gqr: %d vectors cannot fill %d shards (need at least 2 vectors per shard)", n, shards)
	}
	s := &ShardedIndex{dim: dim, methodName: string(cfg.method), rec: recorderOf(cfg)}
	shardOpts := append(append([]Option{}, opts...), withoutTracing())
	start := 0
	for i := 0; i < shards; i++ {
		count := n / shards
		if i < n%shards {
			count++
		}
		block := vectors[start*dim : (start+count)*dim]
		ix, err := Build(block, dim, shardOpts...)
		if err != nil {
			return nil, fmt.Errorf("gqr: building shard %d: %w", i, err)
		}
		s.shards = append(s.shards, ix)
		s.base = append(s.base, start)
		start += count
	}
	return s, nil
}

// Shards returns the number of shards — always exactly the count
// requested at build time: BuildSharded fails when the corpus cannot
// fill that many shards (fewer than two vectors each) instead of
// silently clamping the count.
func (s *ShardedIndex) Shards() int { return len(s.shards) }

// TraceRecorder returns the sharded index's flight recorder, or nil
// when tracing was not enabled at construction.
func (s *ShardedIndex) TraceRecorder() *trace.Recorder { return s.rec }

// Delete routes a tombstone to the shard owning the global id: the
// owner records it (WAL-first when that shard is durable) and the item
// stops appearing in fan-out results from the next snapshot on.
// Deleting an unknown or already-deleted id returns ErrNotFound.
func (s *ShardedIndex) Delete(globalID int) error {
	if globalID < 0 {
		return fmt.Errorf("gqr: delete id %d: %w", globalID, ErrNotFound)
	}
	// base is ascending; the owner is the last shard starting at or
	// below the id. Ids past the owner's range fail its own bound check.
	i := sort.Search(len(s.base), func(j int) bool { return s.base[j] > globalID }) - 1
	return s.shards[i].Delete(globalID - s.base[i])
}

// Search fans the query out to every shard concurrently and merges the
// per-shard top-k into a global top-k (ascending distance, ids are
// global row indexes of the build block). Search options apply per
// shard; a MaxCandidates budget is therefore a per-shard budget.
func (s *ShardedIndex) Search(q []float32, k int, opts ...SearchOption) ([]Neighbor, error) {
	nbrs, _, err := s.SearchWithStats(q, k, opts...)
	return nbrs, err
}

// SearchWithStats is Search plus merged work stats: the §2.2 counters
// are summed over shards (the total work the query cost the process),
// EarlyStopped reports whether any shard's QD rule fired, and with
// WithProfile the retrieval/evaluation times are summed across shards
// (total CPU time, not wall-clock — shards probe concurrently). The
// merged stats always attribute fan-out latency: ShardCount,
// SlowestShard and SlowestShardTime report the critical path of the
// fan-out (shard wall times are measured on every query, traced or
// not). Shard searches are snapshot-based and lock-free, so the
// fan-out genuinely runs in parallel. When shards fail, every failure
// is reported: the returned error joins all shard errors (errors.Join),
// each tagged with its shard id.
func (s *ShardedIndex) SearchWithStats(q []float32, k int, opts ...SearchOption) ([]Neighbor, SearchStats, error) {
	nbrs, st, _, err := s.searchFanout(q, k, opts)
	return nbrs, st, err
}

// ShardSearchStats is one shard's leg of a fan-out query: its wall
// time, its §2.2 work stats, and its failure (empty when the shard
// succeeded).
type ShardSearchStats struct {
	Shard    int           `json:"shard"`
	Duration time.Duration `json:"durationNs"`
	Stats    SearchStats   `json:"stats"`
	Err      string        `json:"err,omitempty"`
}

// SearchWithShardStats is SearchWithStats plus the full per-shard
// breakdown: one entry per shard with that leg's wall time and work
// counters. The breakdown is returned even when the call fails, so a
// partial fan-out failure still shows which shards answered and how
// long each took.
func (s *ShardedIndex) SearchWithShardStats(q []float32, k int, opts ...SearchOption) ([]Neighbor, SearchStats, []ShardSearchStats, error) {
	nbrs, st, outs, err := s.searchFanout(q, k, opts)
	per := make([]ShardSearchStats, len(outs))
	for i := range outs {
		per[i] = ShardSearchStats{Shard: i, Duration: outs[i].dur, Stats: outs[i].st}
		if outs[i].err != nil {
			per[i].Err = outs[i].err.Error()
		}
	}
	return nbrs, st, per, err
}

// shardOutcome is one shard's leg of a fan-out: results, stats, wall
// time and error, plus the shard's child trace while it awaits merging.
type shardOutcome struct {
	nbrs []Neighbor
	st   SearchStats
	dur  time.Duration
	err  error
	tr   *trace.Trace
}

// searchFanout runs the fan-out: begin a trace if the recorder asks for
// one, search every shard concurrently (each leg individually timed and,
// when tracing, recorded into a child trace), merge child traces into
// the parent, then merge results and attribute the slowest leg.
func (s *ShardedIndex) searchFanout(q []float32, k int, opts []SearchOption) ([]Neighbor, SearchStats, []shardOutcome, error) {
	if len(q) != s.dim {
		return nil, SearchStats{}, nil, fmt.Errorf("gqr: query dim %d != index dim %d", len(q), s.dim)
	}
	sc := configOf(opts)
	tr := s.rec.Begin(s.methodName)
	outs := make([]shardOutcome, len(s.shards))
	var wg sync.WaitGroup
	for i := range s.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			o := &outs[i]
			var child *trace.Trace
			if tr != nil {
				child = s.rec.Child(s.methodName)
			}
			start := time.Now()
			nbrs, st, err := s.shards[i].searchSnapshot(q, k, sc.forShard(s.base[i]), child)
			o.dur = time.Since(start)
			o.tr = child
			if err != nil {
				o.err = fmt.Errorf("gqr: shard %d: %w", i, err)
				return
			}
			o.nbrs, o.st = nbrs, st
		}(i)
	}
	wg.Wait()
	if tr != nil {
		for i := range outs {
			tr.MergeChild(outs[i].tr, int32(i), outs[i].dur)
			s.rec.Recycle(outs[i].tr)
			outs[i].tr = nil
		}
	}
	var errs []error
	for i := range outs {
		if outs[i].err != nil {
			errs = append(errs, outs[i].err)
		}
	}
	if err := errors.Join(errs...); err != nil {
		endTrace(s.rec, tr, err)
		return nil, SearchStats{}, outs, err
	}
	var m shardMerge
	slowest := 0
	for i := range outs {
		m.add(outs[i].nbrs, s.base[i], outs[i].st)
		if outs[i].dur > outs[slowest].dur {
			slowest = i
		}
	}
	merged, total := m.result(k, len(s.shards))
	total.SlowestShard, total.SlowestShardTime = slowest, outs[slowest].dur
	tr.SetTotals(totalsOf(k, sc, total))
	endTrace(s.rec, tr, nil)
	return merged, total, outs, nil
}

// shardMerge accumulates one query's shard legs into its global answer;
// the single-query fan-out and the batch fan-out both merge through it.
type shardMerge struct {
	nbrs []Neighbor
	st   SearchStats
}

// add folds in one leg: its neighbors, re-based from shard-local to
// global ids, and its work stats.
func (m *shardMerge) add(nbrs []Neighbor, base int, st SearchStats) {
	for _, n := range nbrs {
		n.ID += base
		m.nbrs = append(m.nbrs, n)
	}
	m.st.Merge(st)
}

// result returns the k best merged neighbors by ascending (distance,
// global id) and the summed stats, stamped with the shard count.
func (m *shardMerge) result(k, shards int) ([]Neighbor, SearchStats) {
	sort.Slice(m.nbrs, func(a, b int) bool {
		if m.nbrs[a].Distance != m.nbrs[b].Distance {
			return m.nbrs[a].Distance < m.nbrs[b].Distance
		}
		return m.nbrs[a].ID < m.nbrs[b].ID
	})
	if len(m.nbrs) > k {
		m.nbrs = m.nbrs[:k]
	}
	m.st.ShardCount = shards
	return m.nbrs, m.st
}

// SearchBatch fans a whole query batch out to every shard and merges
// per query: each shard runs its own batch fan-out over the full block
// concurrently with the other shards. The first per-query error,
// if any, fails the call; shard-level failures fail it too.
func (s *ShardedIndex) SearchBatch(queries []float32, k int, opts ...SearchOption) ([][]Neighbor, error) {
	return batchNeighbors(s.SearchBatchWithStats(queries, k, opts...))
}

// SearchBatchWithStats is SearchBatch with per-query outcomes, merged
// exactly like the single-query fan-out: per query, shard results are
// combined by ascending (distance, global id) and truncated to k, work
// stats are summed across shards, and ShardCount is set. A query's Err
// is set when any shard failed it. The call-level error is reserved for
// structural problems (bad block length, non-positive k) and joined
// shard-level failures.
func (s *ShardedIndex) SearchBatchWithStats(queries []float32, k int, opts ...SearchOption) ([]BatchQueryResult, error) {
	if err := checkBatch(len(queries), s.dim, k); err != nil {
		return nil, err
	}
	sc := configOf(opts)
	nq := len(queries) / s.dim
	perShard := make([][]BatchQueryResult, len(s.shards))
	errs := make([]error, len(s.shards))
	var wg sync.WaitGroup
	for i := range s.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := s.shards[i].searchBatch(queries, k, sc.forShard(s.base[i]))
			if err != nil {
				errs[i] = fmt.Errorf("gqr: shard %d: %w", i, err)
				return
			}
			perShard[i] = res
		}(i)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	out := make([]BatchQueryResult, nq)
	for qi := range out {
		var m shardMerge
		var qerrs []error
		for i := range perShard {
			r := perShard[i][qi]
			if r.Err != nil {
				qerrs = append(qerrs, fmt.Errorf("gqr: shard %d: %w", i, r.Err))
				continue
			}
			m.add(r.Neighbors, s.base[i], r.Stats)
		}
		if err := errors.Join(qerrs...); err != nil {
			out[qi].Err = err
			continue
		}
		out[qi].Neighbors, out[qi].Stats = m.result(k, len(s.shards))
	}
	return out, nil
}

// Stats returns the per-shard statistics.
func (s *ShardedIndex) Stats() []Stats {
	out := make([]Stats, len(s.shards))
	for i, ix := range s.shards {
		out[i] = ix.Stats()
	}
	return out
}
