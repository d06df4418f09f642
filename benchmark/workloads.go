package main

import "gqr"

const topK = 10

// workload is one set of inputs and the requests made against it. Sizes are
// constants here and not flags, so that two commits always run the same
// logical work; README.md says why each workload exists.
type workload struct {
	name   string
	n, dim int
	build  []gqr.Option
	// batch is the number of queries one read request carries: 1 sends
	// /search, more sends /batch.
	batch   int
	maxCand int
	// durable turns the run into the mixed read/write sequence against an
	// index with a data directory and a synced write-ahead log.
	durable bool
	// recallFloor is the recall@10 below which every checked answer counts
	// as failed. It sits a few points under what the unmodified tree
	// reaches, so noise between seeds never trips it and a real loss does.
	recallFloor float64
	// tailWindows is the number of windows request_p99_us is the median
	// of: as many, up to ten, as leave every window twice the 1 000
	// requests a 99th percentile needs, so that a run disturbed for a
	// second still reports.
	tailWindows int
	// truthQueries is how many of the held-out queries, from the first on,
	// have exact ground truth and are the ones recall is taken over. Runs
	// differ in seed, so recall carries the sampling noise of its queries:
	// 1 000 of them keep it under 2 %; search-eval can afford 200, which
	// cost as much to answer exactly, and is as steady on them.
	truthQueries int
}

var workloads = []workload{
	{name: "search-eval", n: 100000, dim: 128, batch: 1, maxCand: 5000, recallFloor: 0.85, tailWindows: 3, truthQueries: 200},
	{name: "search-light", n: 20000, dim: 32, batch: 1, maxCand: 200, recallFloor: 0.60, tailWindows: 10, truthQueries: 1000},
	{name: "search-longcode", n: 20000, dim: 32, build: []gqr.Option{gqr.WithCodeLength(20)}, batch: 1, maxCand: 200, recallFloor: 0.90, tailWindows: 2, truthQueries: 1000},
	{name: "batch-rerank", n: 10000, dim: 128, build: []gqr.Option{gqr.WithReranking(16, 256, 8)}, batch: 32, maxCand: 1000, recallFloor: 0.75, tailWindows: 1, truthQueries: 1000},
	{name: "mixed-durable", n: 20000, dim: 64, batch: 1, maxCand: 1000, durable: true, recallFloor: 0.70, tailWindows: 5, truthQueries: 1000},
}

// sizing is everything about a run's length that is not the workload's
// corpus: the real run uses fullSize, the smoke test a toy one.
type sizing struct {
	// n and maxCand override the workload's corpus size and candidate
	// budget when positive.
	n, maxCand int
	// queries is the number of held-out queries; truthQueries, when
	// positive, overrides how many of them the workload answers exactly.
	queries, truthQueries int
	// writes is the number of write requests that follow the read phases
	// of a read-only workload (70 % add, 15 % delete, 15 % update). A
	// traced run also sizes its direct write measurements by it: a fifth as
	// many log appends, a tenth as many adds, a fiftieth as many republishes.
	writes int
	// mixedOpsPerSecond turns --seconds into the fixed length of the mixed
	// sequence: it is bounded by operations and not by time, so that two
	// commits seal, merge and persist the same data.
	mixedOpsPerSecond int
	// recoveries is how many times the index is brought back from disk;
	// recover_s is their midmean.
	recoveries int
	// windows is the number of equal windows a phase is cut into.
	windows int
	// minBeyond is the number of samples that must lie beyond a reported
	// percentile in every window.
	minBeyond int
	// recallFloors applies the workloads' recall floors, which are sized
	// for the full corpus and budget.
	recallFloors bool
}

var fullSize = sizing{queries: 2000, writes: 10000, mixedOpsPerSecond: 5000, recoveries: 31, windows: 10, minBeyond: 10, recallFloors: true}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
