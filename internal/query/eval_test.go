package query

// Tests for the evaluation-stage overhaul: the gather-then-evaluate
// batching and the early-abandon bounded kernel must be invisible in
// results (identical ids and distances to the straightforward path),
// and the Searcher-scratch reuse must keep steady-state searches
// allocation-free beyond the returned result slices.

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"gqr/internal/dataset"
	"gqr/internal/hash"
	"gqr/internal/index"
	"gqr/internal/quantization"
	"gqr/internal/vecmath"
)

// referenceSearch is the querying pipeline written the slow, obvious
// way: it projects the query itself through the hasher entry point each
// method is defined over, keeps fresh sequences and heaps per call,
// resolves buckets through the allocating index.Bucket, filters and
// scores one id at a time with the unbounded distance kernel, and ranks
// quantized scores with a full sort. It shares no code with the
// Searcher beyond the probe sequences and the top-k heap, and is the
// oracle Search must match id-for-id, bit-for-bit and counter-for-
// counter — the unbounded search's sweep of the id space included, which
// it states as one loop over every id. That includes EarlyAbandoned: the reference keeps results on
// the unbounded kernel but asks refAbandons, its own statement of the
// abandon rule, whether each candidate would have been cut short against
// the k-th best at that moment — so the count moves if candidates reach
// the kernel in another order, with a stale bound, or under another tie
// rule. (Not under re-ranking: the order survivors are evaluated in is
// unspecified, and the count depends on it.)
func referenceSearch(t *testing.T, ix *index.Index, m Method, q []float32, opt Options) Result {
	t.Helper()
	type state struct {
		seq   ProbeSequence
		code  uint64
		score float64
		alive bool
	}
	states := make([]state, len(ix.Tables))
	for ti := range states {
		// Hamming-score methods are defined over c(q) alone; QD methods
		// over c(q) and the flipping costs. KMH picks its codeword
		// differently on the two paths, so the distinction is observable.
		h := ix.Tables[ti].Hasher
		var code uint64
		var costs []float64
		if m.QDScores() {
			costs = make([]float64, h.Bits())
			code = h.QueryProjection(q, costs)
		} else {
			code = h.Code(q)
		}
		states[ti].seq = m.Start(ti, code, costs, nil)
		states[ti].code, states[ti].score, states[ti].alive = states[ti].seq.Next()
	}
	visited := make([]bool, ix.N)
	top := newTopK(opt.K)
	var st Stats

	// Re-ranking: every gathered candidate gets a quantized score from
	// the quantization package's flat table; the best factor·k under
	// ascending (score, id) are the only ones evaluated exactly.
	type scoredID struct {
		d  float32
		id int32
	}
	var scored []scoredID
	var tab []float32
	quant := ix.Quantizer()
	rerank := quant != nil && ix.RerankFactor > 0
	keep := ix.RerankFactor * opt.K
	if rerank {
		tab = quant.ADCTable(q, nil, make([]float32, ix.Dim))
	}
	rank := func() {
		sort.Slice(scored, func(a, b int) bool {
			if scored[a].d != scored[b].d {
				return scored[a].d < scored[b].d
			}
			return scored[a].id < scored[b].id
		})
	}
	dropped := func(id int32) bool {
		if ix.IsDeleted(id) {
			return true
		}
		meta := ix.MetaOf(id)
		if opt.TagMask != 0 && meta&opt.TagMask != opt.TagMask {
			return true
		}
		return opt.Filter != nil && !opt.Filter(id, meta)
	}

	visit := func(id int32) {
		if visited[id] {
			return
		}
		visited[id] = true
		if dropped(id) {
			st.Filtered++
			return
		}
		st.Candidates++
		if rerank {
			mq := quant.M()
			scored = append(scored, scoredID{refADC(tab, quant.K(), ix.CodesSlab()[int(id)*mq:(int(id)+1)*mq]), id})
			st.ADCScored++
		} else {
			if top.Full() && refAbandons(q, ix.Vector(id), top.Worst()) {
				st.EarlyAbandoned++
			}
			top.Offer(vecmath.SquaredL2(q, ix.Vector(id)), id)
		}
	}

	useEarlyStop := opt.EarlyStop && opt.Mu > 0 && m.QDScores()
	useRadiusStop := opt.Radius > 0 && opt.Mu > 0 && m.QDScores()
	unbounded := opt.MaxCandidates <= 0 && opt.MaxBuckets <= 0 && !useEarlyStop && !useRadiusStop
	for {
		best := -1
		for ti := range states {
			if !states[ti].alive {
				continue
			}
			if best < 0 || states[ti].score < states[best].score {
				best = ti
			}
		}
		if best < 0 {
			break
		}
		if useEarlyStop || useRadiusStop {
			bound := opt.Mu * states[best].score
			// The running k-th best: exact distances normally, the
			// factor·k-th quantized score under re-ranking.
			full, worst := top.Full(), 0.0
			if rerank {
				if full = len(scored) >= keep; full {
					rank()
					worst = float64(scored[keep-1].d)
				}
			} else if full {
				worst = top.Worst()
			}
			if useEarlyStop && full && bound*bound >= worst {
				st.EarlyStopped = true
				break
			}
			if opt.Radius > 0 && bound >= opt.Radius {
				st.EarlyStopped = true
				break
			}
		}
		if unbounded && st.BucketsGenerated > ix.N {
			// The sweep: more buckets generated than the view has items
			// and nothing that could end the search short of every live
			// item, so the unvisited ids are taken in id order instead.
			for id := int32(0); int(id) < ix.N; id++ {
				visit(id)
			}
			break
		}
		st.BucketsGenerated++
		if ids := ix.Bucket(best, states[best].code); len(ids) > 0 {
			st.BucketsProbed++
			for _, id := range ids {
				visit(id)
			}
		}
		if opt.MaxCandidates > 0 && st.Candidates >= opt.MaxCandidates {
			break
		}
		if opt.MaxBuckets > 0 && st.BucketsGenerated >= opt.MaxBuckets {
			break
		}
		states[best].code, states[best].score, states[best].alive = states[best].seq.Next()
	}
	if rerank {
		rank()
		if len(scored) > keep {
			scored = scored[:keep]
		}
		st.Reranked = len(scored)
		for _, c := range scored {
			top.Offer(vecmath.SquaredL2(q, ix.Vector(c.id)), c.id)
		}
	}
	ids, dists := top.Sorted()
	for i := range dists {
		dists[i] = math.Sqrt(dists[i])
	}
	if opt.Radius > 0 {
		cut := len(dists)
		for i, d := range dists {
			if d > opt.Radius {
				cut = i
				break
			}
		}
		ids, dists = ids[:cut], dists[:cut]
	}
	return Result{IDs: ids, Dists: dists, Stats: st}
}

// refAbandons is the bounded kernel's rule written out dimension by
// dimension: squared differences go to lane i mod 4 (the last len mod 4
// of them to lane 0), and after every 16th dimension, and at the end,
// the lanes' sum ((s0+s1)+s2)+s3 is compared with bound. It reports
// whether any comparison found the sum strictly above — which is when
// the Searcher counts a candidate as abandoned, an equal sum running on.
func refAbandons(a, b []float32, bound float64) bool {
	var s [4]float64
	whole := len(a) - len(a)%4
	for i := range a {
		d := float64(a[i]) - float64(b[i])
		if i < whole {
			s[i%4] += float64(d * d)
		} else {
			s[0] += float64(d * d)
		}
		if (i+1)%16 == 0 && ((s[0]+s[1])+s[2])+s[3] > bound {
			return true
		}
	}
	return ((s[0]+s[1])+s[2])+s[3] > bound
}

// refADC is the quantized score of one byte code against the flat ADC
// table (tab[s·k+c]), in float32 and in the summation order the serving
// path commits to: two 4-wide chains at m=8, four at m=16 paired
// ((a+b)+(c+d)), otherwise the even and the odd subspaces as two chains.
// float32 addition is not associative, so the order is part of the
// result; a new scoring kernel must keep it (or change this on purpose).
func refADC(tab []float32, k int, code []uint8) float32 {
	chain := func(from, to, step int) float32 {
		var s float32
		for i := from; i < to; i += step {
			s += tab[i*k+int(code[i])]
		}
		return s
	}
	switch m := len(code); m {
	case 8:
		return chain(0, 4, 1) + chain(4, 8, 1)
	case 16:
		return (chain(0, 4, 1) + chain(4, 8, 1)) + (chain(8, 12, 1) + chain(12, 16, 1))
	default:
		return chain(0, m, 2) + chain(1, m, 2)
	}
}

// splitLearner wraps a learner so that Code and QueryProjection disagree
// on bit 0 — a loud version of what KMH does on rare near-ties (its two
// paths compare squared and unsquared distances). The index is built
// through Code, so a pipeline that hands a Hamming-score method the
// QueryProjection code, or a QD method the Code one, probes in a visibly
// different order.
type splitLearner struct{ hash.Learner }

type splitHasher struct{ hash.Hasher }

func (l splitLearner) Train(data []float32, n, d, bits int, seed int64) (hash.Hasher, error) {
	h, err := l.Learner.Train(data, n, d, bits, seed)
	return splitHasher{h}, err
}

func (h splitHasher) Code(x []float32) uint64 { return h.Hasher.Code(x) ^ 1 }

// TestADCScoresMatchReference pins the serving path's quantized scores
// to refADC bit for bit, at each kernel shape (m=8, m=16, even and odd
// generic m). The end-to-end oracle above cannot: a score that differs
// in its last bit almost never changes which factor·k candidates
// survive.
func TestADCScoresMatchReference(t *testing.T) {
	for _, m := range []int{8, 16, 4, 5} {
		dim := 4 * m
		ix, ds := equalityCorpus(t, hash.ITQ{Iterations: 4}, 300, dim, 8, 1, int64(1000+m))
		rq, err := quantization.TrainReranker(ds.Vectors, ds.N(), dim, m, 16, false, 7, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := ix.AttachQuantizer(rq, rq.EncodeAll(ds.Vectors, ds.N(), 1)); err != nil {
			t.Fatal(err)
		}
		ix.RerankFactor = 2
		ids := make([]int32, ix.N)
		for i := range ids {
			ids[i] = int32(i)
		}
		got := make([]float32, len(ids))
		for qi := 0; qi < ds.NQ(); qi++ {
			q := ds.Query(qi)
			tab := rq.ADCTable(q, nil, nil)
			adcKernel(rq.ADCRows(q, nil, nil), ix.CodesSlab(), ids, got)
			for i, id := range ids {
				want := refADC(tab, rq.K(), ix.CodesSlab()[int(id)*m:(int(id)+1)*m])
				if got[i] != want {
					t.Fatalf("m=%d query %d id %d: score %v, reference %v (must be bit-for-bit)", m, qi, id, got[i], want)
				}
			}
		}
	}
}

// equalityCorpus builds one randomized corpus + index for the
// result-equality tests.
func equalityCorpus(t *testing.T, l hash.Learner, n, dim, bits, tables int, seed int64) (*index.Index, *dataset.Dataset) {
	t.Helper()
	ds := dataset.Generate(dataset.GeneratorSpec{
		Name: "eq", N: n, Dim: dim, Clusters: 6, LatentDim: dim / 4, Seed: seed,
	})
	ds.SampleQueries(8, seed+1)
	ix, err := index.Build(l, ds.Vectors, ds.N(), ds.Dim, bits, tables, seed+2)
	if err != nil {
		t.Fatal(err)
	}
	return ix, ds
}

func assertSameResult(t *testing.T, label string, got, want Result) {
	t.Helper()
	if len(got.IDs) != len(want.IDs) {
		t.Fatalf("%s: %d results, reference has %d", label, len(got.IDs), len(want.IDs))
	}
	for i := range got.IDs {
		if got.IDs[i] != want.IDs[i] {
			t.Fatalf("%s: id[%d] = %d, reference %d", label, i, got.IDs[i], want.IDs[i])
		}
		if got.Dists[i] != want.Dists[i] {
			t.Fatalf("%s: dist[%d] = %v, reference %v (must be bit-for-bit)", label, i, got.Dists[i], want.Dists[i])
		}
	}
}

// TestSearchMatchesReferenceAllMethods is the pipeline's correctness
// bar: for every method, over randomized corpora (affine learners, SH
// and KMH; one and several tables; pending tombstones; PQ re-ranking at
// each ADC kernel shape) and option mixes (budgets, early stop, radius,
// tag mask, filter), Search returns exactly the ids, distances and work
// counters of the reference. One Searcher is reused across all queries
// of a corpus, so any cross-query scratch pollution (stale sequences,
// un-reset heap, leftover gather buffer) shows up as a mismatch.
func TestSearchMatchesReferenceAllMethods(t *testing.T) {
	type corpus struct {
		learner hash.Learner
		n, dim  int
		bits    int
		tables  int
		seed    int64
		// deleteEvery > 0 tombstones every deleteEvery-th id, leaving them
		// pending in the posting lists (the filtered gather path).
		deleteEvery int
		// pqM > 0 attaches a PQ re-ranker with pqM subspaces.
		pqM, pqK, factor int
	}
	corpora := []corpus{
		{learner: hash.ITQ{Iterations: 6}, n: 500, dim: 16, bits: 8, tables: 1, seed: 101},
		{learner: hash.LSH{}, n: 700, dim: 24, bits: 10, tables: 3, seed: 202},
		{learner: hash.PCAH{}, n: 300, dim: 12, bits: 8, tables: 2, seed: 303, deleteEvery: 7},
		{learner: hash.SH{}, n: 400, dim: 16, bits: 8, tables: 2, seed: 404},
		{learner: hash.KMH{}, n: 400, dim: 16, bits: 8, tables: 1, seed: 505, deleteEvery: 11},
		{learner: splitLearner{hash.PCAH{}}, n: 300, dim: 12, bits: 8, tables: 2, seed: 909},
		{learner: hash.ITQ{Iterations: 6}, n: 600, dim: 16, bits: 8, tables: 1, seed: 606, pqM: 8, pqK: 16, factor: 3},
		{learner: hash.ITQ{Iterations: 6}, n: 600, dim: 32, bits: 8, tables: 2, seed: 707, deleteEvery: 9, pqM: 16, pqK: 16, factor: 2},
		{learner: hash.KMH{}, n: 500, dim: 16, bits: 8, tables: 1, seed: 808, pqM: 4, pqK: 32, factor: 4}, // the generic ADC arm
	}
	for _, c := range corpora {
		live, ds := equalityCorpus(t, c.learner, c.n, c.dim, c.bits, c.tables, c.seed)
		meta := make([]uint64, live.N)
		for i := range meta {
			meta[i] = uint64(i % 4)
		}
		if err := live.SetMeta(meta); err != nil {
			t.Fatal(err)
		}
		if c.pqM > 0 {
			rq, err := quantization.TrainReranker(ds.Vectors, ds.N(), ds.Dim, c.pqM, c.pqK, false, c.seed+3, 1)
			if err != nil {
				t.Fatal(err)
			}
			if err := live.AttachQuantizer(rq, rq.EncodeAll(ds.Vectors, ds.N(), 1)); err != nil {
				t.Fatal(err)
			}
			live.RerankFactor = c.factor
		}
		if c.deleteEvery > 0 {
			for id := 3; id < live.N; id += c.deleteEvery {
				live.Delete(int32(id))
			}
		}
		ix := live.Snapshot() // folds the deletes into the view's bitmap
		if (c.deleteEvery > 0) != (ix.PendingTombstones() > 0) {
			t.Fatalf("seed=%d: pending tombstones %d", c.seed, ix.PendingTombstones())
		}
		mu := 1 / math.Sqrt(float64(c.bits)) // safe scale for ITQ/PCAH; elsewhere only agreement with the reference matters
		thirds := func(id int32, _ uint64) bool { return id%3 != 0 }
		optSets := []Options{
			{K: 10},
			{K: 1},
			{K: 5, MaxCandidates: 60},
			{K: 10, MaxCandidates: 200},
			{K: 10, MaxBuckets: 15},
			{K: 10, EarlyStop: true, Mu: mu},
			{K: 4, Radius: 2.5, Mu: mu},
			{K: c.n + 10}, // K > N
			{K: 10, MaxCandidates: 120, TagMask: 1},
			{K: 10, MaxCandidates: 120, Filter: thirds},
			{K: 5, TagMask: 2, Filter: thirds, EarlyStop: true, Mu: mu},
		}
		for _, name := range Methods() {
			m, err := NewMethod(name, ix)
			if err != nil {
				t.Fatal(err)
			}
			s := NewSearcher(ix, m)
			for oi, opt := range optSets {
				for qi := 0; qi < ds.NQ(); qi++ {
					q := ds.Query(qi)
					got, err := s.Search(q, opt)
					if err != nil {
						t.Fatal(err)
					}
					want := referenceSearch(t, ix, m, q, opt)
					label := fmt.Sprintf("seed=%d %s opt[%d] query %d", c.seed, name, oi, qi)
					assertSameResult(t, label, got, want)
					if c.pqM > 0 {
						got.Stats.EarlyAbandoned = 0 // survivor order is unspecified
					}
					if got.Stats != want.Stats {
						t.Fatalf("%s: stats %+v, reference %+v", label, got.Stats, want.Stats)
					}
				}
			}
		}
	}
}

// TestEarlyAbandonActuallyFires guards the optimization itself: on a
// budgeted search with a full heap, the bounded kernel must be cutting
// distance computations short, otherwise the whole point is lost (and
// the counter in Stats would silently read zero).
func TestEarlyAbandonActuallyFires(t *testing.T) {
	ix, ds := equalityCorpus(t, hash.ITQ{Iterations: 6}, 800, 32, 10, 1, 909)
	s := NewSearcher(ix, NewGQR(ix))
	abandoned := 0
	for qi := 0; qi < ds.NQ(); qi++ {
		res, err := s.Search(ds.Query(qi), Options{K: 10, MaxCandidates: 400})
		if err != nil {
			t.Fatal(err)
		}
		abandoned += res.Stats.EarlyAbandoned
		if res.Stats.EarlyAbandoned >= res.Stats.Candidates {
			t.Fatalf("query %d: abandoned %d of %d candidates — the k results themselves must complete",
				qi, res.Stats.EarlyAbandoned, res.Stats.Candidates)
		}
	}
	if abandoned == 0 {
		t.Fatal("early abandonment never fired across the whole workload")
	}
}

// searchAllocBudget is the documented steady-state allocation constant:
// a warmed pooled Search allocates exactly its two returned result
// slices (ids + dists) and nothing else. The alloc regression test and
// the public docs share this number; if pooling rots, this fails.
const searchAllocBudget = 2

func TestSearchSteadyStateAllocs(t *testing.T) {
	for _, tables := range []int{1, 3} {
		ix, ds := equalityCorpus(t, hash.ITQ{Iterations: 6}, 600, 16, 8, tables, 404)
		for _, name := range Methods() {
			m, err := NewMethod(name, ix)
			if err != nil {
				t.Fatal(err)
			}
			s := NewSearcher(ix, m)
			q := ds.Query(0)
			// Heap full (K=10 over 600 items, budget 150) and scratch
			// warmed by a first call — the pooled steady state.
			opt := Options{K: 10, MaxCandidates: 150}
			if _, err := s.Search(q, opt); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(30, func() {
				if _, err := s.Search(q, opt); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > searchAllocBudget {
				t.Errorf("%s (%d tables): %.1f allocs/op, budget %d (result slices only)",
					name, tables, allocs, searchAllocBudget)
			}
		}
	}
}
