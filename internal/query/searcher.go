package query

import (
	"fmt"
	"math"
	"slices"
	"time"

	"gqr/internal/index"
	"gqr/internal/quantization"
	"gqr/internal/trace"
	"gqr/internal/vecmath"
)

// Options controls one Search call.
type Options struct {
	// K is the number of nearest neighbors to return.
	K int
	// MaxCandidates is N of Algorithms 1-2: stop once this many
	// distinct items have been collected for evaluation. Zero means no
	// candidate budget.
	MaxCandidates int
	// MaxBuckets stops after this many buckets have been generated
	// (probed or found empty). Zero means no bucket budget.
	MaxBuckets int
	// EarlyStop enables the paper's §4.1 termination rule for QD
	// methods: once the k-th candidate distance d_k satisfies
	// µ·QD ≥ d_k for the next bucket, no unseen bucket can improve the
	// result, so probing stops. Ignored for Hamming-score methods.
	EarlyStop bool
	// Mu is the Theorem 2 scale µ = 1/(σ_max(H)·√m) used by EarlyStop
	// and Radius. Zero disables both rules.
	Mu float64
	// Radius, when positive, turns the search into a bounded-radius
	// query (§4.1's first stopping criterion): only items within this
	// Euclidean distance are returned, and for QD methods probing
	// stops once µ·QD of the next bucket reaches the radius — no
	// bucket beyond that point can contain an in-radius item.
	Radius float64
	// Profile enables per-stage timing (Stats.RetrievalTime /
	// Stats.EvaluationTime) at the cost of a few clock reads per
	// probed bucket. The paper's §2.2 frames querying as retrieval +
	// evaluation; the split shows where each method spends its budget.
	Profile bool
	// Trace, when non-nil, records one span per stage occurrence into
	// the flight-recorder trace (probe-sequence generation, per-table
	// probing, candidate gather, batched evaluation, heap finalize),
	// annotated with per-span work counters. A non-nil Trace implies
	// the Profile clock discipline: both views are derived from the
	// same stage boundaries, so SearchStats timing and trace spans
	// always tell one story.
	Trace *trace.Trace
	// TagMask, when nonzero, keeps only items whose metadata word has
	// every mask bit set (meta & TagMask == TagMask) — the tag fast
	// path, evaluated as one AND per candidate inside the gather loop.
	TagMask uint64
	// Filter, when non-nil, keeps only items it reports true for. It
	// runs inside the gather loop after the tombstone and tag-mask
	// tests, so rejected items never reach the distance kernel.
	Filter func(id int32, meta uint64) bool
}

// Stats reports the work one Search performed.
type Stats struct {
	// BucketsGenerated counts sequence emissions, including codes that
	// hashed to empty buckets (GHR/GQR generate such codes; HR/QR/MIH
	// never do).
	BucketsGenerated int
	// BucketsProbed counts non-empty buckets evaluated.
	BucketsProbed int
	// Candidates counts distinct items evaluated (the paper's
	// "# retrieved items", Figure 8). An item counts as evaluated even
	// when the early-abandon kernel cut its distance computation short —
	// the retrieval work that surfaced it was spent either way.
	Candidates int
	// EarlyAbandoned counts candidates whose distance computation was
	// cut short because a partial sum already exceeded the k-th-best
	// distance. These items can never enter the result; the counter
	// shows how much evaluation work the bounded kernel saved.
	EarlyAbandoned int
	// Filtered counts gathered ids dropped before evaluation —
	// tombstoned items plus items rejected by TagMask or Filter. These
	// do NOT count as Candidates: they cost a bitmap test (and possibly
	// a predicate call), never a distance computation.
	Filtered int
	// ADCScored counts candidates scored by the re-ranking stage's ADC
	// table; Reranked counts the survivors it handed to exact
	// evaluation. Both zero when the bound view has no quantizer.
	ADCScored int
	Reranked  int
	// EarlyStopped reports whether the QD lower-bound rule fired.
	EarlyStopped bool
	// RetrievalTime and EvaluationTime split the query time between
	// deciding which buckets to probe and computing exact distances.
	// Both are derived from the same stage clock the flight recorder
	// uses: RetrievalTime = sequence init + probing (sequence
	// advances, merged best-first scan, bucket lookups, empty
	// buckets), EvaluationTime = candidate gather + ADC re-ranking +
	// batched evaluation. Populated when Options.Profile is set or a
	// Trace is attached.
	RetrievalTime  time.Duration
	EvaluationTime time.Duration
}

// Result is the outcome of one Search: ids and exact distances in
// ascending distance order, plus work stats.
type Result struct {
	IDs   []int32
	Dists []float64
	Stats Stats
}

// Searcher executes queries against an index with a fixed querying
// method. It owns all per-query scratch, so a steady-state Search
// allocates nothing beyond the two returned result slices. The flip
// side: a Searcher is not safe for concurrent use; keep one per
// goroutine. Searchers are cheap to pool: binding one to an immutable
// index snapshot (index.Index.Snapshot) makes every search lock-free,
// which is how the public API runs concurrent queries — a sync.Pool of
// Searchers per published snapshot.
type Searcher struct {
	ix      *index.Index
	method  Method
	qd      bool // method.QDScores(), read once
	visited []uint32
	epoch   uint32
	qbuf    []float32

	// The prepared query: per table, the code and flipping costs that
	// define quantization distance (the outputs of
	// hash.Hasher.QueryProjection), and for re-ranked indexes its ADC
	// rows, built from the rotated query in rotQ when the quantizer
	// rotates.
	qcodes  []uint64
	costs   [][]float64
	adcRows [][256]float32
	rotQ    []float32

	// quant/codes/factor are the bound view's serving quantizer state
	// (nil/0 without WithReranking): the shared id-aligned code slab and
	// the survivor factor. Per query, keep = factor·k candidates survive
	// quantized scoring, collected flat — (adcDists, adcIDs) parallel
	// arrays, one quickselect at drain, O(candidates) — unless the
	// early-stop rule needs a running keep-th best, which the rtop heap
	// provides. ptop is the heap that rule reads: rtop then, top otherwise.
	quant    *quantization.Reranker
	codes    []uint8
	factor   int
	keep     int
	flatADC  bool
	adcDists []float32
	adcIDs   []int32
	rtop     topK
	ptop     *topK

	// pending is the bound view's tombstone bitmap, cached at
	// construction and only when the view still has dead ids in its
	// posting lists (pending > 0) — once every tombstone is purged by a
	// seal or merge, searches skip even the per-bucket branch. tombs is
	// the bitmap the gather stage tests this query: pending while buckets
	// are probed, the view's whole bitmap once a sweep walks the id space,
	// purged ids included. meta is the view's metadata slab (nil when no
	// item carries a word).
	pending []uint64
	tombs   []uint64
	meta    []uint64

	// What can end this query's probe, decided once per query: qdStop —
	// the early-stop or the radius rule is armed; unbounded — neither
	// they nor a budget are, so the search ends only when every live item
	// has been evaluated. An unbounded search whose sequences have
	// generated more buckets than the view has items stops generating
	// and sweeps the ids it has not visited, in chunks of sweepChunk
	// through s.ref like any bucket; sweepFrom is the next id to look at,
	// negative until the sweep starts.
	qdStop    bool
	unbounded bool
	sweepFrom int
	sweepIDs  []int32

	// The merged probe-sequence states (whose sequences the method
	// recycles through Start), the bounded top-k heap, the gather buffer,
	// the probed bucket, and the stage clock.
	states []tableState
	top    topK
	cand   []int32
	ref    index.BucketRef
	clock  stageClock
}

// stageClock is the single timing discipline of the pipeline: each
// tick reads the clock once, closing the interval since the previous
// tick as one stage span. Profiling (Stats.RetrievalTime /
// EvaluationTime) and flight-recorder traces both consume its
// boundaries, so there is no second timing codepath. Only the
// Search driver holds it; no stage function sees the clock or
// the trace. When off, the driver pays one predictable branch per
// boundary (`if clk.on`) and computes no Work annotations.
type stageClock struct {
	on   bool
	tr   *trace.Trace // nil when only profiling
	mark time.Time
	dur  [trace.NumStages]time.Duration
}

// reset re-arms the clock for one search.
func (c *stageClock) reset(tr *trace.Trace, on bool) {
	c.tr = tr
	c.on = on
	c.dur = [trace.NumStages]time.Duration{}
	if on {
		c.mark = time.Now()
	}
}

// tick closes the interval since the previous tick as one span of the
// given stage. Callers must check c.on first.
func (c *stageClock) tick(stage trace.Stage, table int32, w trace.Work) {
	now := time.Now()
	c.dur[stage] += now.Sub(c.mark)
	c.tr.Record(stage, table, c.mark, now, w) // nil-safe
	c.mark = now
}

// tableState is one table's position in the merged best-score-first
// probe. The sequence pointer persists across queries so the method can
// recycle its buffers (Method.Start's reuse argument).
type tableState struct {
	seq   ProbeSequence
	code  uint64
	score float64
	alive bool
}

// NewSearcher binds a querying method to an index. The index must not
// be mutated while the Searcher is in use; bind to a snapshot when
// writers are live.
func NewSearcher(ix *index.Index, method Method) *Searcher {
	nt := len(ix.Tables)
	s := &Searcher{
		ix: ix, method: method, qd: method.QDScores(),
		visited: make([]uint32, ix.N),
		states:  make([]tableState, nt),
		qcodes:  make([]uint64, nt),
		costs:   make([][]float64, nt),
	}
	if ix.PendingTombstones() > 0 {
		s.pending = ix.TombWords()
	}
	s.meta = ix.MetaSlab()
	if q := ix.Quantizer(); q != nil && ix.RerankFactor > 0 {
		s.quant, s.codes, s.factor = q, ix.CodesSlab(), ix.RerankFactor
		if q.Rotated() {
			s.rotQ = make([]float32, ix.Dim)
		}
	}
	return s
}

// Method returns the bound querying method.
func (s *Searcher) Method() Method { return s.method }

// Qbuf returns a dim-sized scratch buffer for query preprocessing
// (metric normalization). It is part of the Searcher's poolable
// per-goroutine scratch: reusing it keeps pooled searches
// allocation-free on the hot path.
func (s *Searcher) Qbuf() []float32 {
	if len(s.qbuf) != s.ix.Dim {
		s.qbuf = make([]float32, s.ix.Dim)
	}
	return s.qbuf
}

// Search runs the querying pipeline of §2.2 for one query — retrieval
// (a probe sequence per table, merged best-score-first) and evaluation
// (exact distances of the candidates, bounded max-heap of size K) — and
// returns the approximate k-nearest neighbors in ascending distance
// order. The body is the stage driver: each stage is one function, each
// trace.Stage span closes beside the one call of its function, and the
// stage clock lives only here.
func (s *Searcher) Search(q []float32, opt Options) (Result, error) {
	if err := s.validate(q, &opt); err != nil {
		return Result{}, err
	}
	// K arrives from request bodies and sizes the heaps; no search can
	// return more items than the view holds, so capping it there changes
	// no result.
	opt.K = min(opt.K, max(s.ix.N, 1))
	s.nextEpoch()
	var st Stats
	clk := &s.clock
	clk.reset(opt.Trace, opt.Profile || opt.Trace != nil)

	s.prepareCodes(q)
	s.startSequences()
	if clk.on {
		clk.tick(trace.StageSequence, -1, trace.Work{})
	}
	// Variants are chosen once per query, so every loop stays monomorphic:
	// scoring is ADC (survivors evaluated at drain) or exact; gather
	// filters when the query masks or the view has tombstones in reach.
	rerank := s.quant != nil
	masked := opt.TagMask != 0 || opt.Filter != nil
	s.tombs = s.pending
	s.qdStop = s.qd && opt.Mu > 0 && (opt.EarlyStop || opt.Radius > 0)
	s.unbounded = opt.MaxCandidates <= 0 && opt.MaxBuckets <= 0 && !s.qdStop
	s.sweepFrom = -1
	s.top.Reset(opt.K)
	s.ptop = &s.top
	if rerank {
		s.adcRows = s.quant.ADCRows(q, s.adcRows, s.rotQ)
		s.startRerank(&opt)
		if clk.on {
			clk.tick(trace.StageRerank, -1, trace.Work{})
		}
	}
	// Work deltas since the last probe/evaluate span (traced path only).
	lastGen, lastProbed, lastAband := 0, 0, 0
	for t := s.nextBucket(&opt, &st, noTable); t != noTable; t = s.nextBucket(&opt, &st, t) {
		if clk.on {
			// Everything since the previous boundary: sequence advances,
			// best-first scans, empty-bucket emissions, this bucket's lookup
			// (or this sweep chunk's walk of the visited array).
			clk.tick(trace.StageProbe, int32(max(t, noTable)), trace.Work{Buckets: int32(st.BucketsGenerated - lastGen), Probed: int32(st.BucketsProbed - lastProbed)})
			lastGen, lastProbed = st.BucketsGenerated, st.BucketsProbed
		}
		var cand []int32
		filteredBefore := st.Filtered
		if masked || s.tombs != nil {
			cand = s.gatherFiltered(&opt, &st)
		} else {
			cand = s.gather()
		}
		st.Candidates += len(cand)
		if clk.on {
			clk.tick(trace.StageGather, int32(t), trace.Work{Candidates: int32(len(cand)), Filtered: int32(st.Filtered - filteredBefore)})
		}
		if rerank {
			s.scoreADC(cand, &st)
			if clk.on {
				clk.tick(trace.StageRerank, int32(t), trace.Work{ADCScored: int32(len(cand))})
			}
		} else {
			s.evaluateBatch(q, cand, &st)
			if clk.on {
				clk.tick(trace.StageEvaluate, int32(t), trace.Work{Abandoned: int32(st.EarlyAbandoned - lastAband)})
				lastAband = st.EarlyAbandoned
			}
		}
	}
	if clk.on {
		// Loop-exit remainder: trailing sequence advances, scans and
		// empty buckets since the last boundary belong to probing. The
		// sequences' frontier high-water marks ride on this span.
		clk.tick(trace.StageProbe, -1, trace.Work{Buckets: int32(st.BucketsGenerated - lastGen), Frontier: s.frontier()})
	}
	if rerank {
		// Drain: select the quantized-best keep, evaluate exactly those —
		// at most factor·k items however many candidates were gathered.
		surv := s.selectSurvivors()
		if clk.on {
			clk.tick(trace.StageRerank, -1, trace.Work{})
		}
		st.Reranked = len(surv)
		s.evaluateBatch(q, surv, &st)
		if clk.on {
			clk.tick(trace.StageEvaluate, -1, trace.Work{Candidates: int32(len(surv)), Abandoned: int32(st.EarlyAbandoned - lastAband)})
		}
	}
	ids, dists := s.finalize(opt.Radius)
	if clk.on {
		clk.tick(trace.StageFinalize, -1, trace.Work{})
		st.RetrievalTime = clk.dur[trace.StageSequence] + clk.dur[trace.StageProbe]
		st.EvaluationTime = clk.dur[trace.StageGather] + clk.dur[trace.StageRerank] + clk.dur[trace.StageEvaluate]
	}
	return Result{IDs: ids, Dists: dists, Stats: st}, nil
}

// validate rejects a call the pipeline cannot run.
func (s *Searcher) validate(q []float32, opt *Options) error {
	if opt.K <= 0 {
		return fmt.Errorf("query: K must be positive, got %d", opt.K)
	}
	if len(q) != s.ix.Dim {
		return fmt.Errorf("query: query dim %d != index dim %d", len(q), s.ix.Dim)
	}
	return nil
}

// nextEpoch opens a fresh visited generation, clearing the array on
// wraparound and growing it when items were added since construction.
func (s *Searcher) nextEpoch() {
	s.epoch++
	if s.epoch == 0 {
		clear(s.visited)
		s.epoch = 1
	}
	if len(s.visited) < s.ix.N {
		grown := make([]uint32, s.ix.N)
		copy(grown, s.visited)
		s.visited = grown
	}
}

// prepareCodes projects the query on every table: its code and, for QD
// methods, its flipping costs. Hamming-score methods leave costs[t] nil:
// they never read it.
func (s *Searcher) prepareCodes(q []float32) {
	for t, tab := range s.ix.Tables {
		s.qcodes[t], s.costs[t] = project(s.qd, tab.Hasher, q, s.costs[t])
	}
}

// startSequences is the sequence stage: one probe sequence per table,
// started from the prepared pair and advanced to its first bucket. Slot
// t always holds table t's sequence, so the method recycles the right
// buffers.
func (s *Searcher) startSequences() {
	for t := range s.states {
		st := &s.states[t]
		st.seq = s.method.Start(t, s.qcodes[t], s.costs[t], st.seq)
		st.code, st.score, st.alive = st.seq.Next()
	}
}

// startRerank arms quantized scoring for one query: keep = factor·k
// survivors (at most every item: K is already capped there, and the
// product must not overflow), collected by the rtop heap when the
// early-stop rule needs a running keep-th best (which then replaces the
// exact heap as the rule's reference), flat otherwise.
func (s *Searcher) startRerank(opt *Options) {
	s.keep = s.ix.N
	if s.factor <= s.ix.N/opt.K {
		s.keep = s.factor * opt.K
	}
	s.flatADC = !(opt.EarlyStop && opt.Mu > 0 && s.qd)
	s.adcDists, s.adcIDs = s.adcDists[:0], s.adcIDs[:0]
	if !s.flatADC {
		s.rtop.Reset(s.keep)
		s.ptop = &s.rtop
	}
}

// What nextBucket returns, and takes as prev, in place of a table.
const (
	noTable    = -1 // prev: nothing consumed yet; returned: the search is over
	sweepTable = -2 // s.ref holds a chunk of the sweep, not a bucket
)

// sweepChunk is how many unvisited ids the sweep hands to gather at a
// time: enough to amortise the stage boundaries, small enough that the
// candidate buffers stay the size bucket probing made them.
const sweepChunk = 1024

// nextBucket is the probe stage: it advances the merged probe — the
// table whose next bucket has the smallest score goes first (ties:
// lowest table id; table counts are ≤ 30, so a linear scan beats a
// heap) — until it lands on a non-empty bucket, which it leaves in
// s.ref, returning that bucket's table. prev is the table whose bucket
// the caller just consumed (noTable on the first call). It returns
// noTable when the search is over: a budget is spent, the early-stop
// or radius rule fired, or every sequence is exhausted.
//
// A generate-to-probe sequence reaches the last occupied bucket only
// near the end of its 2^m codes, and a search that nothing can stop must
// evaluate every live item whatever the order. So once such a search has
// generated more buckets than the view has items it stops generating:
// the ids not yet visited arrive in s.ref, a chunk per call (sweepTable),
// and pass through the same gather and scoring stages. The top-k heap
// breaks ties on id, not on arrival, so the answer is the one full
// enumeration would have reached.
func (s *Searcher) nextBucket(opt *Options, st *Stats, prev int) int {
	if s.sweepFrom >= 0 {
		return s.nextSweep()
	}
	states := s.states
	for {
		if prev >= 0 {
			if opt.MaxCandidates > 0 && st.Candidates >= opt.MaxCandidates {
				return noTable
			}
			if opt.MaxBuckets > 0 && st.BucketsGenerated >= opt.MaxBuckets {
				return noTable
			}
			p := &states[prev]
			p.code, p.score, p.alive = p.seq.Next()
		}
		best := -1
		for t := range states {
			if states[t].alive && (best < 0 || states[t].score < states[best].score) {
				best = t
			}
		}
		if best < 0 {
			return noTable
		}
		if s.qdStop {
			// µ·QD lower-bounds the true distance of every item in any
			// bucket with this or a larger QD (Theorem 2); distances
			// here are squared, so compare against the squared bound.
			// Under re-ranking ptop holds ADC distances, so the rule
			// compares the bound against the quantized keep-th best —
			// an approximation of the exact rule, consistent with the
			// stage's approximate candidate selection.
			bound := opt.Mu * states[best].score
			if opt.EarlyStop && s.ptop.Full() && bound*bound >= s.ptop.Worst() {
				st.EarlyStopped = true
				return noTable
			}
			if opt.Radius > 0 && bound >= opt.Radius {
				st.EarlyStopped = true
				return noTable
			}
		}
		if s.unbounded && st.BucketsGenerated > s.ix.N {
			s.sweepFrom = 0
			s.tombs = s.ix.TombWords()
			return s.nextSweep()
		}
		st.BucketsGenerated++
		// The bucket arrives as one flat id slice per frozen segment plus
		// the memtable slice, in the reusable ref: no map lookup, no alloc.
		s.ix.Probe(best, states[best].code, &s.ref)
		if s.ref.Len() > 0 {
			st.BucketsProbed++
			return best
		}
		prev = best
	}
}

// nextSweep leaves the next sweepChunk unvisited ids in s.ref, or
// reports the search over when the id space is walked.
func (s *Searcher) nextSweep() int {
	ids := s.sweepIDs[:0]
	id := s.sweepFrom
	for ; id < s.ix.N && len(ids) < sweepChunk; id++ {
		if s.visited[id] != s.epoch {
			ids = append(ids, int32(id))
		}
	}
	s.sweepFrom, s.sweepIDs = id, ids
	if len(ids) == 0 {
		return noTable
	}
	s.ref.Segs, s.ref.Tail = s.ref.Segs[:0], ids
	return sweepTable
}

// frontier sums the frontier high-water marks of this query's sequences
// (zero for methods that hold none) — read on the traced path only.
func (s *Searcher) frontier() int32 {
	n := 0
	for _, st := range s.states {
		if f, ok := st.seq.(interface{ Frontier() int }); ok {
			n += f.Frontier()
		}
	}
	return int32(n)
}

// gather is the gather stage's fast path: every id of the probed
// bucket not yet seen by this query lands in the candidate buffer.
// Keeping the visited bookkeeping out of the scoring loops lets those
// stream candidate rows from the contiguous slabs. Segments and the
// memtable tail walk through one loop.
func (s *Searcher) gather() []int32 {
	cand := s.cand[:0]
	segs := s.ref.Segs
	for i := 0; i <= len(segs); i++ {
		ids := s.ref.Tail
		if i < len(segs) {
			ids = segs[i]
		}
		for _, id := range ids {
			if s.visited[id] != s.epoch {
				s.visited[id] = s.epoch
				cand = append(cand, id)
			}
		}
	}
	s.cand = cand
	return cand
}

// gatherFiltered is the gather stage when the view carries pending
// tombstones or the query a tag mask or filter: the same walk, but
// tombstoned ids (bitmap test) and items whose metadata word fails the
// mask or the predicate are dropped before any distance work. Dropped
// ids are still marked visited — re-testing them in another bucket is
// wasted work — and count in Stats.Filtered, not Candidates.
func (s *Searcher) gatherFiltered(opt *Options, st *Stats) []int32 {
	cand := s.cand[:0]
	segs := s.ref.Segs
	for i := 0; i <= len(segs); i++ {
		ids := s.ref.Tail
		if i < len(segs) {
			ids = segs[i]
		}
		for _, id := range ids {
			if s.visited[id] == s.epoch {
				continue
			}
			s.visited[id] = s.epoch
			if w := int(id) >> 6; w < len(s.tombs) && s.tombs[w]&(1<<(uint(id)&63)) != 0 {
				st.Filtered++
				continue
			}
			var meta uint64
			if s.meta != nil {
				meta = s.meta[id]
			}
			if (opt.TagMask != 0 && meta&opt.TagMask != opt.TagMask) || (opt.Filter != nil && !opt.Filter(id, meta)) {
				st.Filtered++
				continue
			}
			cand = append(cand, id)
		}
	}
	s.cand = cand
	return cand
}

// scoreADC is the re-ranking stage over one gathered batch: adcKernel
// scores every id, and the scores either stay where the kernel wrote
// them (flat collection) or are offered to the rtop heap (early stop).
// The flat buffer is folded down to its running top-keep whenever it
// outgrows a few multiples of keep: selection retains every candidate
// that could still survive, so folding only bounds memory.
func (s *Searcher) scoreADC(ids []int32, st *Stats) {
	st.ADCScored += len(ids)
	base := 0
	if s.flatADC {
		base = len(s.adcDists)
	}
	need := base + len(ids)
	s.adcDists = slices.Grow(s.adcDists[:base], len(ids))[:need]
	out := s.adcDists[base:need:need]
	adcKernel(s.adcRows, s.codes, ids, out)
	if s.flatADC {
		s.adcIDs = append(s.adcIDs, ids...)
		if len(s.adcIDs) > max(4*s.keep, 4096) {
			adcSelectTop(s.adcDists, s.adcIDs, s.keep)
			s.adcDists, s.adcIDs = s.adcDists[:s.keep], s.adcIDs[:s.keep]
		}
		return
	}
	// Track the heap's worst locally: once full, most candidates lose on
	// one float compare and never pay the Offer call.
	rtop := &s.rtop
	bound := math.Inf(1)
	if rtop.Full() {
		bound = rtop.Worst()
	}
	for i, id := range ids {
		d := float64(out[i])
		if d > bound {
			continue
		}
		if rtop.Offer(d, id) && rtop.Full() {
			bound = rtop.Worst()
		}
	}
}

// adcKernel writes each id's quantized distance to the query into out
// (len(out) == len(ids)): M lookups into the query's ADC rows, indexed
// by the id's byte code — no vector row is touched, only the code slab
// and an ~M·K·4-byte table, both cache-resident. It is the package's one
// ADC scoring loop; the float32 summation order of each shape is part
// of the result (eval_test.go's refADC pins it).
func adcKernel(rows [][256]float32, codes []uint8, ids []int32, out []float32) {
	out = out[:len(ids)]
	switch m := len(rows); m {
	case 8:
		// The default shape gets a fully unrolled loop over fixed-size
		// array views: every bounds check is either hoisted into the two
		// conversions or eliminated (a byte can't index past a [256]
		// row), and the pairwise float32 sums pipeline independently.
		r := (*[8][256]float32)(rows)
		for i, id := range ids {
			off := int(id) * 8
			c := (*[8]uint8)(codes[off : off+8])
			out[i] = (r[0][c[0]] + r[1][c[1]] + r[2][c[2]] + r[3][c[3]]) +
				(r[4][c[4]] + r[5][c[5]] + r[6][c[6]] + r[7][c[7]])
		}
	case 16:
		// Same array-view trick for the high-fidelity shape: sixteen
		// check-free lookups in four independent 4-wide chains.
		r := (*[16][256]float32)(rows)
		for i, id := range ids {
			off := int(id) * 16
			c := (*[16]uint8)(codes[off : off+16])
			out[i] = ((r[0][c[0]] + r[1][c[1]] + r[2][c[2]] + r[3][c[3]]) +
				(r[4][c[4]] + r[5][c[5]] + r[6][c[6]] + r[7][c[7]])) +
				((r[8][c[8]] + r[9][c[9]] + r[10][c[10]] + r[11][c[11]]) +
					(r[12][c[12]] + r[13][c[13]] + r[14][c[14]] + r[15][c[15]]))
		}
	default:
		for i, id := range ids {
			off := int(id) * m
			code := codes[off : off+m : off+m]
			var d0, d1 float32
			sub := 0
			for ; sub+2 <= m; sub += 2 {
				d0 += rows[sub][code[sub]]
				d1 += rows[sub+1][code[sub+1]]
			}
			if sub < m {
				d0 += rows[sub][code[sub]]
			}
			out[i] = d0 + d1
		}
	}
}

// selectSurvivors closes the re-ranking stage: the keep quantized-best
// candidates, by one deterministic quickselect over the flat buffer or
// by draining the early-stop heap. The order is unspecified; exact
// evaluation ranks them.
func (s *Searcher) selectSurvivors() []int32 {
	if !s.flatADC {
		s.adcIDs = s.rtop.AppendIDs(s.adcIDs[:0])
		return s.adcIDs
	}
	if len(s.adcIDs) > s.keep {
		adcSelectTop(s.adcDists, s.adcIDs, s.keep)
		s.adcDists, s.adcIDs = s.adcDists[:s.keep], s.adcIDs[:s.keep]
	}
	return s.adcIDs
}

// finalize drains the top-k heap into the result slices — the only two
// allocations of a warmed search — in ascending distance order, turns
// squared distances into distances and applies the radius cut (the
// heap may hold items farther than a positive Radius).
func (s *Searcher) finalize(radius float64) ([]int32, []float64) {
	ids, dists := s.top.Sorted()
	for i := range dists {
		dists[i] = math.Sqrt(dists[i])
	}
	if radius > 0 {
		for i, d := range dists {
			if d > radius {
				return ids[:i], dists[:i]
			}
		}
	}
	return ids, dists
}

// The candidate feed: while one row is evaluated, the first prefetchSpan
// floats of the row prefetchAhead candidates later are requested, so the
// misses of a bucket's rows overlap instead of queueing one behind
// another. Both are set by measurement on the 100k × 128 benchmark
// corpus (EXPERIMENTS.md): 4 and 8 candidates ahead read the same, 16
// and 32 slower; 64 floats (four cache lines) cover the 92 % of
// candidates that abandon within four blocks, and requesting whole
// 128-float rows was slower than requesting half of each.
const (
	prefetchAhead = 8
	prefetchSpan  = 64
)

// evaluateBatch runs the evaluation stage over one gathered candidate
// batch: exact squared distances against the top-k heap, rows fed to the
// kernel through the prefetch window above. The live k-th-best distance
// is threaded into the bounded kernel as the abandon bound; once the
// heap is full 99 % of candidates abandon, three in four of them after
// their second or third 16-dimension block (at d = 128, 5 000
// candidates; EXPERIMENTS.md has the distribution).
//
// Early abandonment cannot change the result: the kernel only reports
// a value above the bound when the true distance provably exceeds the
// current k-th best (see vecmath.SquaredL2Bounded), and such a
// candidate could never enter the heap — an exact tie with the k-th
// best runs to completion and is still decided by the heap's id
// tie-break.
func (s *Searcher) evaluateBatch(q []float32, ids []int32, st *Stats) {
	data, dim := s.ix.Data, s.ix.Dim
	top := &s.top
	bound := math.Inf(1)
	if top.Full() {
		bound = top.Worst()
	}
	span := min(dim, prefetchSpan)
	// The loop starts prefetchAhead before the first candidate, so the
	// first rows of the batch are requested too.
	for i := -prefetchAhead; i < len(ids); i++ {
		if j := i + prefetchAhead; j < len(ids) {
			prefetch(&data[int(ids[j])*dim], span)
		}
		if i < 0 {
			continue
		}
		r := int(ids[i]) * dim
		if d := vecmath.SquaredL2Bounded(q, data[r:r+dim:r+dim], bound); d > bound {
			st.EarlyAbandoned++
		} else if top.Offer(d, ids[i]) && top.Full() {
			bound = top.Worst()
		}
	}
}
