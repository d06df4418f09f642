package query

import (
	"sort"

	"gqr/internal/hash"
	"gqr/internal/index"
	"gqr/internal/vecmath"
)

// Prepared is one query as the pipeline consumes it: per table, the
// packed code and the flipping costs that define quantization distance
// (the outputs of hash.Hasher.QueryProjection) plus, for re-ranked
// indexes, the query's ADC rows. Searcher.Search prepares its own; a
// batch engine fills one per query from a BatchPlan and hands it to
// Searcher.SearchPrepared, so the projection matmul and the ADC table
// build — the two costs a batch can amortize — are not paid again.
// Whatever a view leaves blank the searcher completes from the query
// vector. Cost rows from a plan are read-only views shared across
// workers; nothing downstream writes them.
type Prepared struct {
	// Codes[t] and Costs[t] are the query's code and per-bit flipping
	// costs on table t. Costs[t] == nil marks table t blank: the plan
	// could not project it (SH and KMH have no affine projection).
	Codes []uint64
	Costs [][]float64
	// ADCRows is the query's stride-256 ADC lookup table (length = the
	// quantizer's M), sliced out of the plan's arena; nil marks it blank.
	ADCRows [][256]float32
}

// BatchPlan holds the amortized preprocessing of one query batch: per
// hash table, the projections of every query computed with a single
// parallel matmul (vecmath.MulBatch32) instead of nq per-query ones,
// and one arena of nq·M ADC rows for re-ranked indexes, so a batch
// allocates its ADC tables once instead of per query. A plan is
// immutable once built: any number of workers may Fill per-query views
// from it concurrently. Plans are reusable across batches (PlanBatch
// grows buffers in place), so callers pool them.
type BatchPlan struct {
	nq int
	// proj[t] is the nq×m projection matrix of table t with costs
	// already converted in place (absolute values; row i is query i's
	// flipping costs), nil when table t's hasher is not batchable.
	// codes[t][i] is query i's packed code on table t.
	proj  []*vecmath.Mat
	codes [][]uint64
	// adcArena is the batch's ADC row arena: rows [i·m, (i+1)·m) belong
	// to query i. m is the quantizer's subspace count (0 = no reranker).
	adcArena [][256]float32
	m        int
}

// PlanBatch computes the batch-amortizable preprocessing for the
// nq×dim row-major query block (already metric-normalized) against ix:
// one MulBatch32 per batchable table plus the shared ADC arena. The
// per-row accumulation order of MulBatch32 matches the per-query
// projection exactly, so every derived code and cost is bit-for-bit
// identical to hash.Hasher.QueryProjection — batching changes where
// the work happens, never its result. plan is reused when non-nil.
// procs bounds the preprocessing workers (<=0 means GOMAXPROCS).
func PlanBatch(ix *index.Index, queries []float32, nq, procs int, plan *BatchPlan) *BatchPlan {
	if plan == nil {
		plan = &BatchPlan{}
	}
	d := ix.Dim
	nt := len(ix.Tables)
	plan.nq = nq
	if cap(plan.proj) < nt {
		plan.proj = make([]*vecmath.Mat, nt)
		plan.codes = make([][]uint64, nt)
	}
	plan.proj = plan.proj[:nt]
	plan.codes = plan.codes[:nt]
	block := queries[:nq*d]
	for t := 0; t < nt; t++ {
		bp, ok := ix.Tables[t].Hasher.(hash.BatchProjector)
		if !ok {
			plan.proj[t] = nil
			continue
		}
		h, mean := bp.ProjectionMatrix()
		proj := vecmath.MulBatch32(block, nq, d, h, mean, procs)
		codes := grown(plan.codes[t], nq)
		vecmath.ParallelRanges(nq, procs, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				codes[i] = hash.CodeAndCosts(proj.Row(i))
			}
		})
		plan.proj[t], plan.codes[t] = proj, codes
	}
	plan.m = 0
	if q := ix.Quantizer(); q != nil && ix.RerankFactor > 0 {
		m := q.M()
		need := nq * m
		if cap(plan.adcArena) < need {
			plan.adcArena = make([][256]float32, need)
		}
		arena := plan.adcArena[:need]
		rotated := q.Rotated()
		vecmath.ParallelRanges(nq, procs, func(lo, hi int) {
			var rot []float32
			if rotated {
				rot = make([]float32, d)
			}
			for i := lo; i < hi; i++ {
				q.ADCRows(queries[i*d:(i+1)*d], arena[i*m:(i+1)*m:(i+1)*m], rot)
			}
		})
		plan.adcArena = arena
		plan.m = m
	}
	return plan
}

// Fill writes query qi's view of the plan into p (reusing its slices)
// and returns p. Safe for concurrent use with other Fill calls on
// distinct Prepared values.
func (b *BatchPlan) Fill(qi int, p *Prepared) *Prepared {
	nt := len(b.proj)
	p.Codes = grown(p.Codes, nt)
	p.Costs = grown(p.Costs, nt)
	for t := 0; t < nt; t++ {
		if b.proj[t] == nil {
			p.Codes[t], p.Costs[t] = 0, nil
			continue
		}
		p.Codes[t] = b.codes[t][qi]
		p.Costs[t] = b.proj[t].Row(qi)
	}
	p.ADCRows = nil
	if b.m > 0 {
		p.ADCRows = b.adcArena[qi*b.m : (qi+1)*b.m : (qi+1)*b.m]
	}
	return p
}

// dupScanCap bounds how many distinct representatives Duplicates
// compares one query against inside an equal-code run. Identical
// queries always share a code, so real duplicates sit in short runs;
// the cap only matters for a pathological run of many distinct queries
// colliding on one code, where it degrades detection to best-effort
// (a missed duplicate costs a redundant search, never correctness)
// instead of going quadratic.
const dupScanCap = 64

// Duplicates fills dup (reusing capacity) with, for each query, the
// index of an earlier batch member with byte-identical content, or -1
// for the first occurrence. Coalesced server batches routinely carry
// identical queries — concurrent requests for the same trending item
// are exactly what a coalescing window collects — and identical
// queries have bit-identical results, so the batch engine runs each
// distinct query once and copies the rest. Detection rides on the
// cache-blocked order: identical queries share their table-0 code, so
// candidates sit inside one equal-code run of the sorted order and
// only run members need exact comparison. Without a batchable table 0
// there are no codes to group by and nothing is marked.
func (b *BatchPlan) Duplicates(queries []float32, d int, order []int, dup []int32) []int32 {
	dup = grown(dup, b.nq)
	for i := range dup {
		dup[i] = -1
	}
	if len(b.proj) == 0 || b.proj[0] == nil {
		return dup
	}
	codes := b.codes[0]
	for start := 0; start < len(order); {
		end := start + 1
		for end < len(order) && codes[order[end]] == codes[order[start]] {
			end++
		}
		// The order sorts ties by index, so order[j] < order[i] within a
		// run: dup always points at the smallest identical index, whose
		// own dup entry stays -1 (the representative actually searched).
		for i := start + 1; i < end; i++ {
			qi := order[i]
			scanned := 0
			for j := start; j < i && scanned < dupScanCap; j++ {
				rep := order[j]
				if dup[rep] >= 0 {
					continue
				}
				scanned++
				if equalRow(queries, qi, rep, d) {
					dup[qi] = int32(rep)
					break
				}
			}
		}
		start = end
	}
	return dup
}

// equalRow reports whether rows a and b of the nq×d block are equal as
// float32 values. NaN payloads never compare equal, which only means a
// NaN-carrying query is not deduplicated.
func equalRow(queries []float32, a, b, d int) bool {
	ra, rb := queries[a*d:(a+1)*d], queries[b*d:(b+1)*d]
	for i := range ra {
		if ra[i] != rb[i] {
			return false
		}
	}
	return true
}

// Order fills order (reusing capacity) with the batch's cache-blocked
// processing order: query indexes sorted by their table-0 code, ties
// by index. Co-scheduled neighbors in this order probe overlapping or
// adjacent buckets, so a worker walking a contiguous run of the order
// re-touches the same stretches of the data slab and PQ code column.
// Per-query results are independent of processing order, so scheduling
// by code cannot change any query's output — it is deterministic
// regardless, because the sort key (code, index) is a total order.
// When table 0 is not batchable the identity order is returned.
func (b *BatchPlan) Order(order []int) []int {
	order = grown(order, b.nq)
	for i := range order {
		order[i] = i
	}
	if len(b.proj) == 0 || b.proj[0] == nil {
		return order
	}
	codes := b.codes[0]
	sort.Slice(order, func(a, c int) bool {
		if codes[order[a]] != codes[order[c]] {
			return codes[order[a]] < codes[order[c]]
		}
		return order[a] < order[c]
	})
	return order
}
