package gqr

import (
	"errors"
	"fmt"
	"math"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"gqr/internal/hash"
	"gqr/internal/index"
	"gqr/internal/quantization"
	"gqr/internal/query"
	"gqr/internal/trace"
	"gqr/internal/vecmath"
)

// ErrNotFound reports a lifecycle operation against an id that does not
// exist or has already been deleted. Match with errors.Is.
var ErrNotFound = errors.New("gqr: vector not found")

// ErrDimension reports a vector whose dimension does not match the
// index's. Match with errors.Is.
var ErrDimension = errors.New("gqr: dimension mismatch")

// Neighbor is one search result: an item id (the row index of the
// vector in the build block) and its exact Euclidean distance to the
// query.
type Neighbor struct {
	ID       int
	Distance float64
}

// SearchStats reports the work one search performed, in the paper's
// §2.2 units: buckets generated (probe-sequence emissions, including
// codes that hashed to empty buckets), buckets probed (non-empty
// buckets evaluated), and candidates (distinct items whose exact
// distance was computed — the paper's "# retrieved items", Figure 8).
// RetrievalTime and EvaluationTime split the query between deciding
// which buckets to probe and computing exact distances; they are only
// populated when WithProfile is set.
type SearchStats struct {
	BucketsGenerated int `json:"bucketsGenerated"`
	BucketsProbed    int `json:"bucketsProbed"`
	Candidates       int `json:"candidates"`
	// EarlyAbandoned counts candidates whose exact-distance computation
	// was cut short by the bounded evaluation kernel because a partial
	// sum already exceeded the current k-th-best distance. Those items
	// are included in Candidates; the counter shows how much evaluation
	// work early abandonment saved.
	EarlyAbandoned int `json:"earlyAbandoned"`
	// Filtered counts gathered ids dropped before evaluation —
	// tombstoned items plus items rejected by WithFilter/WithTagMask.
	// They are not included in Candidates: a dropped id costs a bitmap
	// test (and possibly a predicate call), never a distance
	// computation.
	Filtered int `json:"filtered,omitempty"`
	// ADCScored counts candidates scored by the quantized re-ranking
	// stage's ADC table; Reranked counts the survivors handed to exact
	// evaluation (those survivors are what Candidates counts as
	// evaluated work). Both zero when the index has no reranker.
	ADCScored      int           `json:"adcScored,omitempty"`
	Reranked       int           `json:"reranked,omitempty"`
	EarlyStopped   bool          `json:"earlyStopped"`
	RetrievalTime  time.Duration `json:"retrievalTime"`
	EvaluationTime time.Duration `json:"evaluationTime"`
}

// Merge accumulates another search's work counters into s: counts and
// stage times add up, EarlyStopped ORs. Use it for cumulative
// accounting over many queries, e.g. totalling a batch's work.
func (s *SearchStats) Merge(o SearchStats) {
	s.BucketsGenerated += o.BucketsGenerated
	s.BucketsProbed += o.BucketsProbed
	s.Candidates += o.Candidates
	s.EarlyAbandoned += o.EarlyAbandoned
	s.Filtered += o.Filtered
	s.ADCScored += o.ADCScored
	s.Reranked += o.Reranked
	s.EarlyStopped = s.EarlyStopped || o.EarlyStopped
	s.RetrievalTime += o.RetrievalTime
	s.EvaluationTime += o.EvaluationTime
}

// statsOf converts the internal per-query stats to the public type.
func statsOf(st query.Stats) SearchStats {
	return SearchStats{
		BucketsGenerated: st.BucketsGenerated,
		BucketsProbed:    st.BucketsProbed,
		Candidates:       st.Candidates,
		EarlyAbandoned:   st.EarlyAbandoned,
		Filtered:         st.Filtered,
		ADCScored:        st.ADCScored,
		Reranked:         st.Reranked,
		EarlyStopped:     st.EarlyStopped,
		RetrievalTime:    st.RetrievalTime,
		EvaluationTime:   st.EvaluationTime,
	}
}

// snapshot is one published, immutable read view of the index: the
// bucket structure as of its publication, the querying method bound to
// that structure, and the Theorem 2 early-stop scale. Searches load the
// current snapshot atomically and work only on it, so they never
// contend with each other or with Add. The per-snapshot pool hands out
// query.Searcher scratch — visited-epoch array, angular qbuf, per-table
// probe-sequence buffers, top-k heap and the evaluation-stage gather
// buffer — keyed to this snapshot's generation, so a warmed pooled
// search allocates nothing beyond its result slices; when a new
// snapshot is published the old pool is simply garbage.
type snapshot struct {
	view   *index.Index
	method query.Method
	mu     float64 // Theorem 2 scale for early stop (0 when unavailable)
	gen    uint64
	pool   sync.Pool
}

// searcher returns pooled per-goroutine scratch bound to this snapshot.
func (s *snapshot) searcher() *query.Searcher {
	if v := s.pool.Get(); v != nil {
		return v.(*query.Searcher)
	}
	return query.NewSearcher(s.view, s.method)
}

// release returns scratch to the snapshot's pool.
func (s *snapshot) release(sr *query.Searcher) { s.pool.Put(sr) }

// Index is a learned-hash ANN index over a set of vectors. An Index is
// safe for concurrent use: any number of Search, SearchWithStats and
// SearchBatch calls may run alongside Add (and each other). Readers
// work on an immutable snapshot swapped atomically by writers (a batch
// captures one for all its queries), so the query hot path takes no
// lock; see Add for the visibility contract.
type Index struct {
	metric     Metric
	methodName string
	muScale    float64 // Theorem 2 scale, derived from the immutable hashers

	// snap is the published read view. Search paths load it atomically
	// and never touch the writer-owned state below.
	snap atomic.Pointer[snapshot]

	// writeMu serializes mutators: Add, Save and snapshot publication.
	writeMu sync.Mutex
	// live is the writer-owned mutable index; guarded by writeMu. Its
	// delta tails are never read by searches (they read snap's frozen
	// views: shared CSR cores plus cloned tails).
	live *index.Index
	// stale marks that live has Adds not yet in the published snapshot;
	// the next search republishes before probing.
	stale atomic.Bool

	// sealEvery is the memtable size at which Add seals it into a new
	// frozen segment (O(sealEvery) inline, amortized O(1) per Add).
	sealEvery int
	// mergeBarrier is the id below which segments are never merged: the
	// durability layer's base file covers [0, mergeBarrier), so those
	// segments need no files of their own. Guarded by writeMu.
	mergeBarrier int
	// dur is the durability state (WAL writer, data dir); nil until
	// EnableDurability/Recover. Guarded by writeMu.
	dur *durability
	// persistErr records the first background persistence failure; it is
	// surfaced by Close and Compact. Guarded by writeMu.
	persistErr error
	// closed stops new background work; bg waits for in-flight work
	// (segment persists, merges). merging/bgN guarded by writeMu.
	closed  bool
	merging bool
	bgN     int
	bg      sync.WaitGroup
	// compactObs, when set, observes every applied merge (the metrics
	// layer feeds a merge-duration histogram from it). Guarded by
	// writeMu for writes; invoked outside the lock.
	compactObs func(CompactionInfo)

	// Lifecycle instrumentation surfaced through Stats: how long Build
	// took, how many vectors Add appended, how often a new snapshot was
	// published because of those Adds, and the generation counter.
	buildTime      time.Duration
	adds           atomic.Int64
	deletes        atomic.Int64
	methodRebuilds atomic.Int64
	gen            atomic.Uint64

	// rec is the query flight recorder; nil unless tracing was enabled
	// at construction (WithTracing / WithSlowQueryThreshold). Immutable
	// after construction, so the hot path reads it without atomics.
	rec *trace.Recorder
}

// recorderOf builds the flight recorder an index configuration asks
// for, or nil when tracing is off.
func recorderOf(cfg config) *trace.Recorder {
	if cfg.traceSample <= 0 && cfg.slowQuery <= 0 {
		return nil
	}
	return trace.NewRecorder(trace.Config{
		SampleEvery: cfg.traceSample,
		SlowQuery:   cfg.slowQuery,
		Capacity:    cfg.traceCapacity,
	})
}

// TraceRecorder returns the index's flight recorder, or nil when
// tracing was not enabled at construction. The recorder is safe for
// concurrent use alongside searches.
func (ix *Index) TraceRecorder() *trace.Recorder { return ix.rec }

// Build trains hash functions on the n×dim row-major block vectors
// (n = len(vectors)/dim) and indexes every row. The block is retained
// by reference for evaluation; do not mutate it afterwards.
func Build(vectors []float32, dim int, opts ...Option) (*Index, error) {
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if dim <= 0 || len(vectors) == 0 || len(vectors)%dim != 0 {
		return nil, fmt.Errorf("gqr: vector block length %d not a positive multiple of dim %d", len(vectors), dim)
	}
	buildStart := time.Now()
	n := len(vectors) / dim
	if cfg.metric == Angular {
		normalized := make([]float32, len(vectors))
		copy(normalized, vectors)
		for i := 0; i < n; i++ {
			normalizeRow(normalized[i*dim : (i+1)*dim])
		}
		vectors = normalized
	}
	bits := cfg.bits
	if bits == 0 {
		bits = index.CodeLengthFor(n, cfg.expected)
		if cfg.algorithm == KMH && bits%2 != 0 {
			bits++ // KMH needs a multiple of its 2-bit subspaces
		}
	}
	learner, err := learnerOf(cfg.algorithm)
	if err != nil {
		return nil, err
	}
	ix, err := index.BuildP(learner, vectors, n, dim, bits, cfg.tables, cfg.seed, cfg.procs)
	if err != nil {
		return nil, err
	}
	if cfg.rerank {
		m := cfg.rerankM
		if m == 0 {
			m = 8
		}
		if m > dim {
			m = dim
		}
		kq := cfg.rerankK
		if kq == 0 {
			kq = quantization.MaxCentroids
		}
		if kq > n {
			kq = n
		}
		factor := cfg.rerankFactor
		if factor == 0 {
			factor = 8
		}
		// A distinct seed stream from the hash learners, derived from the
		// build seed so the whole index stays reproducible.
		q, err := quantization.TrainReranker(vectors, n, dim, m, kq, cfg.opq, cfg.seed+7331, cfg.procs)
		if err != nil {
			return nil, err
		}
		if err := ix.AttachQuantizer(q, q.EncodeAll(vectors, n, cfg.procs)); err != nil {
			return nil, err
		}
		ix.RerankFactor = factor
	}
	out := &Index{live: ix, metric: cfg.metric, methodName: string(cfg.method), rec: recorderOf(cfg), sealEvery: cfg.memtable}
	out.muScale = earlyStopScale(ix)
	if err := out.publishLocked(); err != nil {
		return nil, err
	}
	out.buildTime = time.Since(buildStart)
	return out, nil
}

// normalizeRow scales v to unit L2 norm in place (zero vectors are left
// untouched).
func normalizeRow(v []float32) {
	var s float64
	for _, x := range v {
		s += float64(x) * float64(x)
	}
	if s == 0 {
		return
	}
	inv := float32(1 / math.Sqrt(s))
	for i := range v {
		v[i] *= inv
	}
}

// learnerOf maps the public Algorithm to a configured learner.
func learnerOf(a Algorithm) (hash.Learner, error) {
	switch a {
	case KMH:
		return hash.KMH{SubspaceBits: 2}, nil
	default:
		return hash.ByName(string(a))
	}
}

// earlyStopScale computes µ = 1/(σ_max(H)·√m), minimized over tables
// (the weakest bound is safe for all of them), when every hasher
// exposes its projection matrix; otherwise 0 (early stop unavailable).
func earlyStopScale(ix *index.Index) float64 {
	mu := math.Inf(1)
	for _, t := range ix.Tables {
		p, ok := t.Hasher.(interface{ Matrix() *vecmath.Mat })
		if !ok {
			return 0
		}
		h := p.Matrix()
		var sn float64
		if h.Rows >= h.Cols {
			sn = vecmath.SpectralNorm(h)
		} else {
			sn = vecmath.SpectralNorm(h.T())
		}
		if sn <= 0 {
			return 0
		}
		v := 1 / (sn * math.Sqrt(float64(h.Rows)))
		if v < mu {
			mu = v
		}
	}
	if math.IsInf(mu, 1) {
		return 0
	}
	return mu
}

// Search returns the k approximate nearest neighbors of q in ascending
// distance order. With no options the entire index is probed (exact but
// slow); pass WithMaxCandidates to trade recall for latency.
func (ix *Index) Search(q []float32, k int, opts ...SearchOption) ([]Neighbor, error) {
	nbrs, _, err := ix.SearchWithStats(q, k, opts...)
	return nbrs, err
}

// SearchWithStats is Search plus the work stats of §2.2: how many
// buckets the probe sequence generated and probed, how many candidate
// items were evaluated, and whether the early-stop rule fired. Pass
// WithProfile to also split the time between retrieval and evaluation.
func (ix *Index) SearchWithStats(q []float32, k int, opts ...SearchOption) ([]Neighbor, SearchStats, error) {
	tr := ix.rec.Begin(ix.methodName)
	snap, err := ix.currentSnapshot()
	if err != nil {
		endTrace(ix.rec, tr, err)
		return nil, SearchStats{}, err
	}
	tr.Mark(trace.StageSnapshot, -1)
	s := snap.searcher()
	nbrs, st, err := ix.searchOne(snap, s, q, k, configOf(opts), tr)
	snap.release(s)
	endTrace(ix.rec, tr, err)
	return nbrs, st, err
}

// endTrace closes a flight record begun on rec: published (subject to
// the capture policies) when the search succeeded, recycled otherwise.
func endTrace(rec *trace.Recorder, tr *trace.Trace, err error) {
	switch {
	case tr == nil:
	case err != nil:
		rec.Recycle(tr)
	default:
		rec.Finish(tr, time.Since(tr.Begin))
	}
}

// totalsOf copies a search's final counters into trace totals so a
// captured trace is self-contained.
func totalsOf(k int, sc searchConfig, st SearchStats) trace.Totals {
	return trace.Totals{
		K:                k,
		Budget:           sc.maxCandidates,
		BucketsGenerated: st.BucketsGenerated,
		BucketsProbed:    st.BucketsProbed,
		Candidates:       st.Candidates,
		EarlyAbandoned:   st.EarlyAbandoned,
		Filtered:         st.Filtered,
		ADCScored:        st.ADCScored,
		Reranked:         st.Reranked,
		EarlyStopped:     st.EarlyStopped,
	}
}

// searchOne is the one query entry point behind Search and
// SearchBatch: it normalizes q for the metric, runs it through
// searcher s over snap and converts the outcome to the public types.
// Spans and totals go into tr (nil-safe, so the untraced path pays only
// nil checks); beginning and ending the record stay with its owner.
func (ix *Index) searchOne(snap *snapshot, s *query.Searcher, q []float32, k int, sc searchConfig, tr *trace.Trace) ([]Neighbor, SearchStats, error) {
	if ix.metric == Angular && len(q) == snap.view.Dim {
		qb := s.Qbuf()
		copy(qb, q)
		normalizeRow(qb)
		q = qb
	}
	// One NaN poisons every heap comparison downstream. Normalization
	// cannot hide one: it turns NaN and ±Inf components into NaN.
	if i := firstNonFinite(q); i >= 0 {
		return nil, SearchStats{}, fmt.Errorf("gqr: query component %d is not finite", i)
	}
	tr.Mark(trace.StagePreprocess, -1)
	res, err := s.Search(q, query.Options{
		K:             k,
		MaxCandidates: sc.maxCandidates,
		MaxBuckets:    sc.maxBuckets,
		EarlyStop:     sc.earlyStop,
		Radius:        sc.radius,
		Mu:            snap.mu,
		Profile:       sc.profile,
		Trace:         tr,
		TagMask:       sc.tagMask,
		Filter:        filterOf(sc.filter),
	})
	if err != nil {
		return nil, SearchStats{}, err
	}
	out := make([]Neighbor, len(res.IDs))
	for i := range res.IDs {
		out[i] = Neighbor{ID: int(res.IDs[i]), Distance: res.Dists[i]}
	}
	st := statsOf(res.Stats)
	if tr != nil {
		tr.SetTotals(totalsOf(k, sc, st))
	}
	return out, st, nil
}

// firstNonFinite returns the index of v's first NaN or ±Inf component,
// or -1 when every component is finite.
func firstNonFinite(v []float32) int {
	for i, x := range v {
		if x-x != 0 { // NaN and ±Inf are the only floats for which x−x ≠ 0
			return i
		}
	}
	return -1
}

// filterOf adapts the public filter signature (plain int ids) to the
// internal one. nil stays nil, so unfiltered searches keep the
// allocation-free gather fast path.
func filterOf(f func(id int, meta uint64) bool) func(int32, uint64) bool {
	if f == nil {
		return nil
	}
	return func(id int32, meta uint64) bool { return f(int(id), meta) }
}

// Add appends one vector to the index and returns its id (the next row
// index). The learned hash functions are not retrained — as with every
// L2H system they are assumed trained on a representative sample — so
// heavy drift calls for a rebuild. Safe for concurrent use with Search;
// visibility is snapshot-based: searches already running (including
// batch workers) keep probing the snapshot they started on, and the
// first search issued after Add returns publishes a fresh snapshot
// that includes the vector. Adds are serialized with each other.
func (ix *Index) Add(vec []float32) (int, error) {
	return ix.AddWithMeta(vec, 0)
}

// AddWithMeta is Add with a per-item metadata word, the input of
// WithFilter and WithTagMask. A zero word is free; the first nonzero
// word allocates the index's metadata slab (zeros for earlier items).
func (ix *Index) AddWithMeta(vec []float32, meta uint64) (int, error) {
	if ix.metric == Angular {
		if len(vec) != ix.live.Dim { // Dim is immutable after Build
			return 0, fmt.Errorf("gqr: vector dim %d != index dim %d", len(vec), ix.live.Dim)
		}
		n := make([]float32, len(vec))
		copy(n, vec)
		normalizeRow(n)
		vec = n
	}
	ix.writeMu.Lock()
	defer ix.writeMu.Unlock()
	if ix.closed {
		return 0, fmt.Errorf("gqr: index is closed")
	}
	id, err := ix.addLocked(vec, meta)
	if err != nil {
		return 0, err
	}
	ix.maybeSealLocked()
	return id, nil
}

// addLocked appends one already-normalized vector: WAL first (the
// durability point), then the live index. Caller holds writeMu and
// seals afterwards via maybeSealLocked.
func (ix *Index) addLocked(vec []float32, meta uint64) (int, error) {
	if len(vec) != ix.live.Dim {
		return 0, fmt.Errorf("gqr: vector dim %d != index dim %d", len(vec), ix.live.Dim)
	}
	// A non-finite vector would sit in the corpus poisoning every query
	// that gathers it, and in the WAL poisoning every recovery.
	if i := firstNonFinite(vec); i >= 0 {
		return 0, fmt.Errorf("gqr: vector component %d is not finite", i)
	}
	// Durability point: the record is on stable storage before the Add
	// is acknowledged. The vector is logged post-normalization so replay
	// reconstructs the stored bytes exactly (bit-identical recovery).
	if ix.dur != nil && ix.dur.walOn {
		if err := ix.dur.append(uint64(ix.live.N), meta, vec); err != nil {
			return 0, fmt.Errorf("gqr: wal append: %w", err)
		}
	}
	id, err := ix.live.AddMeta(vec, meta)
	if err != nil {
		return 0, err
	}
	ix.stale.Store(true)
	ix.adds.Add(1)
	return int(id), nil
}

// maybeSealLocked seals the memtable once it reaches the configured
// size and kicks the background merger. Caller holds writeMu.
func (ix *Index) maybeSealLocked() {
	if ix.live.MemtableItems() >= ix.sealEvery {
		ix.sealLocked(false)
		ix.maybeMergeLocked()
	}
}

// Delete tombstones one item by id. The id stays permanently allocated
// (ids are row indexes and are never reused) but the item stops
// appearing in search results from the next snapshot on; its storage is
// reclaimed from the posting lists when a seal or merge purges the
// range. With the WAL on, the delete record is fsynced before the call
// returns — the same durability contract as Add. Deleting an unknown or
// already-deleted id returns ErrNotFound.
func (ix *Index) Delete(id int) error {
	ix.writeMu.Lock()
	defer ix.writeMu.Unlock()
	if ix.closed {
		return fmt.Errorf("gqr: index is closed")
	}
	return ix.deleteLocked(id)
}

func (ix *Index) deleteLocked(id int) error {
	if id < 0 || id >= ix.live.N || ix.live.IsDeleted(int32(id)) {
		return fmt.Errorf("gqr: delete id %d: %w", id, ErrNotFound)
	}
	if ix.dur != nil && ix.dur.walOn {
		if err := ix.dur.appendDelete(uint64(id)); err != nil {
			return fmt.Errorf("gqr: wal append: %w", err)
		}
	}
	ix.live.Delete(int32(id))
	ix.deletes.Add(1)
	ix.stale.Store(true)
	return nil
}

// Update replaces one item's vector: a delete of id plus an add of vec,
// applied atomically with respect to snapshots (no published snapshot
// ever shows both or neither). The item keeps its metadata word but
// gets a NEW id — the returned one — because ids are row indexes into
// contiguous storage. Updating an unknown or deleted id returns
// ErrNotFound; a wrong-dimension vector returns ErrDimension before
// anything is applied. On the WAL, the add record is written before the
// delete record, so a crash between the two replays as a duplicate
// (old and new both live, the update unacknowledged), never as a loss.
func (ix *Index) Update(id int, vec []float32) (int, error) {
	if ix.metric == Angular && len(vec) == ix.live.Dim {
		n := make([]float32, len(vec))
		copy(n, vec)
		normalizeRow(n)
		vec = n
	}
	ix.writeMu.Lock()
	defer ix.writeMu.Unlock()
	if ix.closed {
		return 0, fmt.Errorf("gqr: index is closed")
	}
	if len(vec) != ix.live.Dim {
		return 0, fmt.Errorf("gqr: update id %d: vector dim %d != index dim %d: %w", id, len(vec), ix.live.Dim, ErrDimension)
	}
	if id < 0 || id >= ix.live.N || ix.live.IsDeleted(int32(id)) {
		return 0, fmt.Errorf("gqr: update id %d: %w", id, ErrNotFound)
	}
	meta := ix.live.MetaOf(int32(id))
	newID, err := ix.addLocked(vec, meta)
	if err != nil {
		return 0, err
	}
	if err := ix.deleteLocked(id); err != nil {
		return 0, err
	}
	ix.maybeSealLocked()
	return newID, nil
}

// SetMetadata attaches one metadata word per current item (the
// WithFilter / WithTagMask input for corpora whose tags are known at
// build time; per-item words for later adds go through AddWithMeta).
// len(meta) must equal the current item count. The slice is copied.
// Metadata set before EnableDurability is persisted with the base;
// words set afterwards for pre-existing items are not re-persisted.
func (ix *Index) SetMetadata(meta []uint64) error {
	ix.writeMu.Lock()
	defer ix.writeMu.Unlock()
	if ix.closed {
		return fmt.Errorf("gqr: index is closed")
	}
	cp := make([]uint64, len(meta))
	copy(cp, meta)
	if err := ix.live.SetMeta(cp); err != nil {
		return fmt.Errorf("gqr: %w", err)
	}
	ix.stale.Store(true)
	return nil
}

// CompactionInfo describes one applied segment merge, delivered to the
// observer installed by SetCompactionObserver.
type CompactionInfo struct {
	// Duration is the background merge's wall time (fold + optional
	// segment-file write).
	Duration time.Duration
	// SegmentsIn is how many segments were folded into one.
	SegmentsIn int
	// Items is the merged segment's item count.
	Items int
	// Purged is how many tombstoned items the merge dropped from the
	// posting lists (the inputs' live counts minus the output's).
	Purged int
}

// SetCompactionObserver installs a hook invoked after every applied
// background or inline merge. Pass nil to remove it. The hook runs
// outside the writer lock and must be safe for concurrent use.
func (ix *Index) SetCompactionObserver(f func(CompactionInfo)) {
	ix.writeMu.Lock()
	defer ix.writeMu.Unlock()
	ix.compactObs = f
}

// sealLocked freezes the memtable into a new segment. With durability
// enabled the segment is written to its own file — synchronously when
// sync is set (checkpoints: EnableDurability, Recover, Close, Compact),
// otherwise on a background goroutine — and the WAL is rotated; the old
// log is deleted only after the segment file is durable. Caller holds
// writeMu.
func (ix *Index) sealLocked(sync bool) error {
	seg := ix.live.SealMemtable()
	if seg == nil {
		return nil
	}
	if ix.dur == nil {
		return nil
	}
	d := ix.live.Dim
	// The segment file covers the memtable's full id range (its span),
	// including slots purged at seal; the posting lists inside list only
	// live items.
	vecs := ix.live.Data[seg.MinID()*d : (seg.MinID()+seg.Span())*d]
	var meta []uint64
	if slab := ix.live.MetaSlab(); slab != nil {
		meta = slab[seg.MinID() : seg.MinID()+seg.Span()]
	}
	qcodes := ix.live.CodesRange(seg.MinID(), seg.Span())
	// Capture the tombstone bitmap under the lock: the WAL being retired
	// may hold delete records, whose only other durable home is the
	// tombs.bits sidecar written before the log is dropped.
	tombs := ix.live.FoldedTombWords()
	dead := ix.live.Tombstones()
	bits := ix.live.N
	oldWAL, err := ix.dur.rotate(ix.live.N)
	if err != nil {
		ix.persistErr = firstErr(ix.persistErr, err)
		return err
	}
	if sync {
		err := ix.persistSegment(seg, vecs, meta, qcodes, tombs, dead, bits, oldWAL)
		ix.persistErr = firstErr(ix.persistErr, err)
		return err
	}
	ix.bgN++
	ix.bg.Add(1)
	go func() {
		defer ix.bg.Done()
		err := ix.persistSegment(seg, vecs, meta, qcodes, tombs, dead, bits, oldWAL)
		ix.writeMu.Lock()
		defer ix.writeMu.Unlock()
		ix.bgN--
		ix.persistErr = firstErr(ix.persistErr, err)
		if err == nil && !ix.closed {
			ix.maybeMergeLocked()
		}
	}()
	return nil
}

// persistSegment writes one sealed segment's file atomically, persists
// the tombstone bitmap the retiring WAL's delete records folded into,
// installs the segment's zero-reference cleanup hook, and only then
// retires the WAL. Pure filesystem work plus reads of immutable state —
// safe off-lock.
func (ix *Index) persistSegment(seg *index.Segment, vecs []float32, meta []uint64, qcodes []uint8, tombs []uint64, dead, bits int, oldWAL string) error {
	path, err := ix.dur.writeSegment(seg, vecs, meta, qcodes, ix.live.Dim)
	if err != nil {
		// Keep the old WAL: it is still the only durable copy of these
		// Adds, and recovery will replay it.
		return err
	}
	if err := ix.dur.writeTombs(tombs, dead, bits); err != nil {
		return err
	}
	seg.SetOnZero(func() { os.Remove(path) })
	if oldWAL != "" {
		ix.dur.dropWAL(oldWAL)
	}
	return nil
}

// maybeMergeLocked schedules one background merge when the size-tiered
// policy finds a run worth folding and no merge is already in flight.
// Caller holds writeMu.
func (ix *Index) maybeMergeLocked() {
	if ix.merging || ix.closed {
		return
	}
	in := ix.live.PlanMerge(ix.mergeBarrier)
	if in == nil {
		return
	}
	seq := ix.live.TakeSeq()
	var vecs []float32
	var meta []uint64
	var qcodes []uint8
	if ix.dur != nil {
		d := ix.live.Dim
		lo := in[0].MinID()
		span := 0
		for _, s := range in {
			span += s.Span()
		}
		// Subslice of the immutable prefix: later Adds only ever write
		// past ix.live.N*d, never into [lo*d, (lo+span)*d).
		vecs = ix.live.Data[lo*d : (lo+span)*d]
		if slab := ix.live.MetaSlab(); slab != nil {
			meta = slab[lo : lo+span]
		}
		qcodes = ix.live.CodesRange(lo, span)
	}
	// A merge is where tombstoned items are purged for good: hand the
	// merger a frozen bitmap (copy-on-write, safe off-lock) when any of
	// the inputs still carry dead ids in their posting lists.
	var tombs []uint64
	if ix.live.PendingTombstones() > 0 {
		tombs = ix.live.FoldedTombWords()
	}
	ix.merging = true
	ix.bgN++
	ix.bg.Add(1)
	go ix.runMerge(in, seq, vecs, meta, qcodes, tombs)
}

// runMerge is the background merger: it folds the planned run into one
// segment (the O(core) work that must never happen on the publish
// path), makes the merged file durable first when durability is on,
// then splices the result into the live segment list.
func (ix *Index) runMerge(in []*index.Segment, seq uint64, vecs []float32, meta []uint64, qcodes []uint8, tombs []uint64) {
	defer ix.bg.Done()
	start := time.Now()
	liveIn := 0
	for _, s := range in {
		liveIn += s.Items()
	}
	merged, err := index.MergeSegments(in, seq, tombs)
	var path string
	if err == nil && ix.dur != nil {
		// The merged file must exist before the inputs can ever be
		// deleted, so every crash window is fully covered.
		path, err = ix.dur.writeSegment(merged, vecs, meta, qcodes, ix.live.Dim)
	}
	elapsed := time.Since(start)

	ix.writeMu.Lock()
	ix.merging = false
	ix.bgN--
	var obs func(CompactionInfo)
	var info CompactionInfo
	if err == nil {
		err = ix.live.ApplyMerge(in, merged)
		if err == nil {
			if path != "" {
				merged.SetOnZero(func() { os.Remove(path) })
			}
			ix.stale.Store(true)
			obs = ix.compactObs
			info = CompactionInfo{Duration: elapsed, SegmentsIn: len(in), Items: merged.Items(), Purged: liveIn - merged.Items()}
		} else if path != "" {
			os.Remove(path)
		}
	}
	ix.persistErr = firstErr(ix.persistErr, err)
	if !ix.closed {
		ix.maybeMergeLocked()
	}
	rec := ix.rec
	ix.writeMu.Unlock()

	if obs != nil {
		obs(info)
	}
	if rec != nil && err == nil {
		// A compaction is its own flight record: one StageCompact span
		// covering the whole merge, annotated with the items folded.
		if tr := rec.Begin("compaction"); tr != nil {
			tr.Record(trace.StageCompact, -1, start, start.Add(elapsed),
				trace.Work{Candidates: int32(info.Items)})
			tr.SetTotals(trace.Totals{Candidates: info.Items})
			rec.Finish(tr, elapsed)
		}
	}
}

func firstErr(a, b error) error {
	if a != nil {
		return a
	}
	return b
}

// Compact waits for in-flight background work, then folds every
// mergeable segment into one inline and seals the memtable first, so
// the index reaches its most compact shape. It also surfaces any
// background persistence error. Blocks Adds for the duration; search
// snapshots are unaffected.
func (ix *Index) Compact() error {
	for {
		ix.bg.Wait()
		ix.writeMu.Lock()
		if ix.closed {
			ix.writeMu.Unlock()
			return fmt.Errorf("gqr: index is closed")
		}
		if !ix.merging && ix.bgN == 0 {
			break
		}
		ix.writeMu.Unlock()
	}
	var obs func(CompactionInfo)
	var info CompactionInfo
	defer func() {
		ix.writeMu.Unlock()
		if obs != nil {
			obs(info)
		}
	}()
	if err := ix.sealLocked(true); err != nil {
		return err
	}
	in := ix.live.SegmentsAbove(ix.mergeBarrier)
	// Fold when there is more than one segment, or when a lone segment
	// still carries tombstoned ids in its posting lists: compaction is
	// the canonical form, and dead items must not survive it.
	if len(in) >= 2 || (len(in) == 1 && ix.live.PendingTombstones() > 0) {
		var tombs []uint64
		if ix.live.PendingTombstones() > 0 {
			tombs = ix.live.FoldedTombWords()
		}
		liveIn := 0
		for _, s := range in {
			liveIn += s.Items()
		}
		merged, err := index.MergeSegments(in, ix.live.TakeSeq(), tombs)
		if err != nil {
			return err
		}
		if ix.dur != nil {
			d := ix.live.Dim
			lo := in[0].MinID()
			span := 0
			for _, s := range in {
				span += s.Span()
			}
			var meta []uint64
			if slab := ix.live.MetaSlab(); slab != nil {
				meta = slab[lo : lo+span]
			}
			path, err := ix.dur.writeSegment(merged, ix.live.Data[lo*d:(lo+span)*d], meta, ix.live.CodesRange(lo, span), d)
			if err != nil {
				return err
			}
			merged.SetOnZero(func() { os.Remove(path) })
		}
		if err := ix.live.ApplyMerge(in, merged); err != nil {
			return err
		}
		ix.stale.Store(true)
		obs = ix.compactObs
		info = CompactionInfo{SegmentsIn: len(in), Items: merged.Items(), Purged: liveIn - merged.Items()}
	}
	if err := ix.writeTombsLocked(); err != nil {
		return err
	}
	return ix.persistErr
}

// writeTombsLocked persists the current tombstone bitmap sidecar when
// durability is on and any item has ever been deleted. Caller holds
// writeMu.
func (ix *Index) writeTombsLocked() error {
	if ix.dur == nil || ix.live.Tombstones() == 0 {
		return nil
	}
	return ix.dur.writeTombs(ix.live.FoldedTombWords(), ix.live.Tombstones(), ix.live.N)
}

// Close stops background compaction, seals and persists the memtable
// when durability is enabled (the clean-shutdown WAL handoff: after a
// clean Close the data directory recovers without any WAL replay), and
// closes the WAL. The index must not be used afterwards; Close is
// idempotent. It returns the first error any background persistence
// hit, so acknowledged-but-unpersisted state is never silently
// dropped.
func (ix *Index) Close() error {
	ix.writeMu.Lock()
	if ix.closed {
		ix.writeMu.Unlock()
		return nil
	}
	ix.closed = true
	ix.writeMu.Unlock()
	// In-flight seals and merges drain here; closed stops them from
	// scheduling successors.
	ix.bg.Wait()

	ix.writeMu.Lock()
	defer ix.writeMu.Unlock()
	err := ix.persistErr
	if ix.dur != nil {
		// Seal synchronously so every acknowledged Add lands in a
		// durable segment file; the WALs that covered them are retired
		// by the persist, leaving only the empty current log. The
		// tombstone bitmap is persisted too, so a clean shutdown's
		// deletes recover without WAL replay.
		err = firstErr(err, ix.sealLocked(true))
		err = firstErr(err, ix.writeTombsLocked())
		err = firstErr(err, ix.dur.close())
	}
	return err
}

// publishLocked snapshots the live index, rebinds the querying method
// to the immutable view, and swaps the result in as the current read
// snapshot. Publication retains the frozen segment list by reference
// (O(segments)) and clones only the memtable of recent Adds — never
// O(core) work; folding segments together is the background merger's
// job. Caller holds writeMu (or, during Build/Load, has exclusive
// access to the index).
func (ix *Index) publishLocked() error {
	view := ix.live.Snapshot()
	method, err := query.NewMethod(ix.methodName, view)
	if err != nil {
		view.Release()
		return err
	}
	s := &snapshot{view: view, method: method, mu: ix.muScale, gen: ix.gen.Add(1)}
	s.pool.New = func() any { return query.NewSearcher(view, method) }
	old := ix.snap.Swap(s)
	ix.stale.Store(false)
	if old != nil {
		// Drop the unpublished view's segment references. In-flight
		// searches still holding it are unaffected: a zero refcount only
		// deletes the segment's file, never its memory.
		old.view.Release()
	}
	return nil
}

// currentSnapshot returns the read snapshot to search, republishing
// first when Adds made the published one stale. Republishing is the
// only search-path operation that takes the writer lock; steady-state
// searches load the pointer and go.
func (ix *Index) currentSnapshot() (*snapshot, error) {
	if ix.stale.Load() {
		ix.writeMu.Lock()
		if ix.stale.Load() { // re-check: another search may have republished
			if err := ix.publishLocked(); err != nil {
				ix.writeMu.Unlock()
				return nil, err
			}
			ix.methodRebuilds.Add(1)
		}
		ix.writeMu.Unlock()
	}
	return ix.snap.Load(), nil
}

// Stats describes the built index.
type Stats struct {
	Items      int
	Dim        int
	CodeLength int
	Tables     int
	// Buckets is the number of non-empty buckets per table.
	Buckets []int
	// Algorithm, Method and Metric echo the build configuration.
	Algorithm Algorithm
	Method    QueryMethod
	Metric    Metric
	// BuildTime is how long Build (training plus table construction)
	// took; zero for indexes restored via Load.
	BuildTime time.Duration
	// BuildParallelism is the resolved worker bound Build ran with
	// (WithBuildParallelism, defaulting to GOMAXPROCS); zero for
	// indexes restored via Load. TrainTime, CodeTime and FreezeTime
	// split BuildTime between hasher training, item coding, and CSR
	// core construction.
	BuildParallelism int
	TrainTime        time.Duration
	CodeTime         time.Duration
	FreezeTime       time.Duration
	// Adds counts vectors appended through Add since construction.
	Adds int64
	// Deletes counts tombstones recorded through Delete and Update
	// since construction (Items above counts allocated ids, live or
	// dead).
	Deletes int64
	// LiveItems is Items minus Tombstones: the number of vectors a
	// search can return. Tombstones is how many ids have been deleted;
	// PendingTombstones is the subset still occupying posting-list
	// slots because no seal or merge has purged their range yet.
	LiveItems         int
	Tombstones        int
	PendingTombstones int
	// MethodRebuilds counts how often a fresh read snapshot (with
	// rebuilt querying-method views) was published because Add changed
	// the buckets.
	MethodRebuilds int64
	// Compactions counts all compaction events since construction:
	// memtable seals plus segment merges (Seals + Merges).
	Compactions int64
	// Seals counts memtable → frozen-segment transitions; Merges counts
	// applied segment merges (background or inline Compact).
	Seals  int64
	Merges int64
	// Segments is the frozen segment count; MemtableItems is the number
	// of Adds not yet sealed into a segment.
	Segments      int
	MemtableItems int
	// WALBytes is the total size of the live write-ahead logs; zero
	// when durability is off or the WAL is disabled.
	WALBytes int64
	// SnapshotGeneration is the generation counter of the published
	// read snapshot; it starts at 1 (Build) and increments on every
	// republish.
	SnapshotGeneration uint64
	// RerankM and RerankK describe the serving quantizer (subspaces and
	// centroids per subspace) and RerankFactor the re-ranking stage's
	// survivor budget (the factor·k quantized-best candidates that get
	// exact distances); all zero when WithReranking was not used.
	// OPQRotation reports whether codes sit behind a learned rotation.
	RerankM      int
	RerankK      int
	RerankFactor int
	OPQRotation  bool
}

// Stats reports size, occupancy and lifecycle information. It reads
// the live (writer-side) index, so Items reflects Adds immediately,
// before the next search republishes the read snapshot.
func (ix *Index) Stats() Stats {
	ix.writeMu.Lock()
	defer ix.writeMu.Unlock()
	s := Stats{
		Items:              ix.live.N,
		Dim:                ix.live.Dim,
		CodeLength:         ix.live.Bits(),
		Tables:             len(ix.live.Tables),
		Algorithm:          Algorithm(ix.live.Tables[0].Hasher.Name()),
		Method:             QueryMethod(ix.methodName),
		Metric:             ix.metric,
		BuildTime:          ix.buildTime,
		BuildParallelism:   ix.live.Timings.Procs,
		TrainTime:          ix.live.Timings.Train,
		CodeTime:           ix.live.Timings.Code,
		FreezeTime:         ix.live.Timings.Freeze,
		Adds:               ix.adds.Load(),
		Deletes:            ix.deletes.Load(),
		LiveItems:          ix.live.LiveItems(),
		Tombstones:         ix.live.Tombstones(),
		PendingTombstones:  ix.live.PendingTombstones(),
		MethodRebuilds:     ix.methodRebuilds.Load(),
		Compactions:        int64(ix.live.Compactions()),
		Seals:              int64(ix.live.Seals()),
		Merges:             int64(ix.live.Merges()),
		Segments:           ix.live.SegmentCount(),
		MemtableItems:      ix.live.MemtableItems(),
		SnapshotGeneration: ix.gen.Load(),
	}
	if ix.dur != nil {
		s.WALBytes = ix.dur.walBytes()
	}
	if q := ix.live.Quantizer(); q != nil {
		s.RerankM, s.RerankK, s.RerankFactor = q.M(), q.K(), ix.live.RerankFactor
		s.OPQRotation = q.Rotated()
	}
	for t := range ix.live.Tables {
		s.Buckets = append(s.Buckets, ix.live.BucketCount(t))
	}
	return s
}
