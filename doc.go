// Package gqr is a Go implementation of learning-to-hash (L2H)
// approximate nearest-neighbor search with quantization-distance
// querying, reproducing "A General and Efficient Querying Method for
// Learning to Hash" (Li et al., SIGMOD 2018).
//
// # Background
//
// L2H systems answer k-nearest-neighbor queries in two stages: a
// learning stage trains similarity-preserving hash functions that map
// vectors to short binary codes (this package implements ITQ, PCAH,
// spectral hashing, K-means hashing and an LSH baseline), and a
// querying stage decides which hash buckets to probe for a query. Most
// systems probe buckets in ascending Hamming distance (Hamming
// ranking). The paper's observation is that the Hamming distance is too
// coarse: with m-bit codes it only distinguishes m+1 bucket classes.
//
// Quantization distance (QD) replaces it: the QD from query q to bucket
// b is the minimum L1 perturbation of q's projected (real-valued) hash
// values that would move q into b. QD lower-bounds the true Euclidean
// distance to every item in the bucket (up to a constant), distinguishes
// up to 2^m buckets, and admits an incremental generate-to-probe
// algorithm (GQR) that yields the next-best bucket in O(log f) from a
// min-heap of "flipping vectors" without ever sorting all buckets.
//
// # Quick start
//
//	vecs := ...               // n×dim row-major []float32
//	ix, err := gqr.Build(vecs, dim)
//	if err != nil { ... }
//	nbrs, err := ix.Search(query, 10)   // 10 nearest neighbors
//
// Build options select the learner, querying method, code length and
// table count; search options bound the candidate budget (the
// recall/latency knob):
//
//	ix, _ := gqr.Build(vecs, dim,
//	        gqr.WithAlgorithm(gqr.PCAH),
//	        gqr.WithQueryMethod(gqr.GQR))
//	nbrs, _ := ix.Search(q, 10, gqr.WithMaxCandidates(2000))
//
// Every entry point — Search, SearchBatch (Search fanned out across
// GOMAXPROCS workers over one snapshot), the HTTP server — answers each
// query through one internal function over one pipeline: the query's
// projected vector (its code and per-bit flipping costs) starts a probe
// sequence per table, and the probed buckets flow through gather,
// scoring and finalize stages that are also the stages of the query's
// flight record (see DESIGN.md).
//
// The internal packages contain the substrates: hash (learners), query
// (HR/GHR/QR/GQR/MIH probing and the search pipeline), index (hash
// tables), quantization (PQ/OPQ re-ranking and the IMI comparison
// system), dataset (synthetic corpora and fvecs IO), vecmath (eigen/SVD
// linear algebra) and bench (the experiment harness that regenerates
// every table and figure of the paper — see cmd/gqr-bench and
// EXPERIMENTS.md).
package gqr
