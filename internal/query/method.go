// Package query implements the querying stage of learning to hash: the
// paper's quantization-distance methods (QR, GQR) and the baselines they
// are evaluated against (HR, GHR/hash lookup, MIH), plus the searcher
// that executes retrieval and evaluation over a hash index.
//
// A querying method sees a query only as what it needs of it — per
// table, the code c(q) and the flipping costs |p_i(q)| — and
// Method.Start is the only way a probe sequence begins. Searcher.Search
// is the only pipeline: a short driver over one function per stage
// (sequence, probe, gather, rerank or evaluate, finalize), the same
// stages a flight record shows.
//
// Terminology follows the paper:
//
//   - HR  — Hamming ranking: sort all non-empty buckets by Hamming
//     distance to c(q), probe in order (§2.2).
//   - GHR — generate-to-probe Hamming ranking, a.k.a. hash lookup:
//     enumerate codes in ascending Hamming distance without sorting
//     (§6.3).
//   - QR  — QD ranking: sort all non-empty buckets by quantization
//     distance (Algorithm 1).
//   - GQR — generate-to-probe QD ranking: emit buckets in ascending QD
//     on demand via the Append/Swap generation tree (Algorithms 2-4).
//   - MIH — multi-index hashing over code substrings (appendix).
package query

import (
	"fmt"

	"gqr/internal/hash"
	"gqr/internal/index"
)

// ProbeSequence emits the buckets to probe for one query on one table,
// best first. Score is the sequence's similarity indicator for the
// emitted bucket: quantization distance for QD methods, Hamming distance
// for Hamming methods. Scores are non-decreasing over a sequence's
// lifetime.
type ProbeSequence interface {
	Next() (code uint64, score float64, ok bool)
}

// Method starts probe sequences against a fixed index. A Method is
// bound to the index at construction so it can precompute per-table
// structures (bucket code lists for the sorting methods, substring
// tables for MIH). Methods hold no per-query state, so one instance
// serves any number of concurrent Searchers; per-query scratch lives in
// the sequences, which the Searcher owns and hands back through Start.
//
// A query reaches a method only as its projected vector, the pair the
// paper's querying stage is defined over: the code c(q) and the per-bit
// flipping costs |p_i(q)|.
type Method interface {
	// Name identifies the querying method ("gqr", "hr", ...).
	Name() string
	// Start begins the probe sequence of table t for a query with the
	// given code and flipping costs. Hamming-score methods (QDScores
	// false) read only the code, and costs may be nil; QD methods read
	// costs (one per code bit) during Start only and never retain or
	// modify it, so one cost row may be shared across goroutines. reuse
	// is a sequence this method returned earlier, whose buffers are
	// recycled so the steady-state query path allocates nothing; nil —
	// or another method's sequence — means a fresh allocation, so callers
	// thread back whatever they last got. Sequences are single-use and
	// not safe for concurrent use.
	Start(t int, code uint64, costs []float64, reuse ProbeSequence) ProbeSequence
	// QDScores reports whether Score values are quantization distances
	// (enabling the Theorem 2 early-stop rule in the searcher).
	QDScores() bool
}

// project computes the (code, costs) pair a method with the given score
// type consumes, through the hasher entry point that method is defined
// over: Code alone for Hamming scores (costs stay nil), QueryProjection
// into costs for quantization distance. The two are not interchangeable
// — KMH resolves near-ties between codewords differently on each.
func project(qd bool, h hash.Hasher, q []float32, costs []float64) (uint64, []float64) {
	if !qd {
		return h.Code(q), nil
	}
	costs = grown(costs, h.Bits())
	return h.QueryProjection(q, costs), costs
}

// NewSequence projects q on table t of ix and starts m's probe sequence
// from the result — the one-off path of tests and figure code that want
// a sequence straight from a vector. m must be bound to ix.
func NewSequence(m Method, ix *index.Index, t int, q []float32) ProbeSequence {
	code, costs := project(m.QDScores(), ix.Tables[t].Hasher, q, nil)
	return m.Start(t, code, costs, nil)
}

// grown returns s resized to length n, reallocating only when the
// capacity is insufficient — the common helper behind every sequence's
// scratch reuse. Contents are unspecified; callers overwrite.
func grown[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// sortIdxByCost sorts order — a permutation of bit indices — by
// ascending costs[order[i]], breaking ties toward the smaller index.
// Code lengths are ≤ 64, so an insertion sort beats sort.Slice and
// allocates nothing; the comparator is a strict total order (indices
// are distinct), so the result is the unique sorted permutation.
func sortIdxByCost(order []int, costs []float64) {
	for i := 1; i < len(order); i++ {
		v := order[i]
		j := i - 1
		for j >= 0 && (costs[order[j]] > costs[v] || (costs[order[j]] == costs[v] && order[j] > v)) {
			order[j+1] = order[j]
			j--
		}
		order[j+1] = v
	}
}

// NewMethod constructs the named querying method bound to ix.
// Recognized names: "hr", "ghr", "qr", "gqr", "mih".
func NewMethod(name string, ix *index.Index) (Method, error) {
	switch name {
	case "hr":
		return NewHR(ix), nil
	case "ghr":
		return NewGHR(ix), nil
	case "qr":
		return NewQR(ix), nil
	case "gqr":
		return NewGQR(ix), nil
	case "mih":
		return NewMIH(ix, 0), nil
	default:
		return nil, fmt.Errorf("query: unknown querying method %q", name)
	}
}

// Methods lists the registered querying-method names.
func Methods() []string { return []string{"hr", "ghr", "qr", "gqr", "mih"} }
