package gqr

// One testing.B benchmark per table and figure of the paper. Each bench
// drives the same experiment harness as cmd/gqr-bench, at a reduced
// corpus scale so `go test -bench=.` finishes in minutes; run
// `gqr-bench -experiment all -scale 1` for the full-scale numbers
// recorded in EXPERIMENTS.md. Caches are reset every iteration so ns/op
// reflects a full regeneration of the table or figure.

import (
	"fmt"
	"io"
	"testing"

	"gqr/internal/bench"
	"gqr/internal/dataset"
)

// benchOpts is the reduced scale used by the testing.B entry points.
var benchOpts = bench.RunOptions{
	Scale:   0.02,
	NQ:      10,
	K:       10,
	Budgets: []float64{0.01, 0.05, 0.2, 1.0},
}

// runExperiment executes one registered experiment b.N times.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := bench.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bench.ResetCaches()
		if err := e.Run(benchOpts, io.Discard); err != nil {
			b.Fatalf("%s: %v", id, err)
		}
	}
}

func BenchmarkTable1LinearSearch(b *testing.B)  { runExperiment(b, "table1") }
func BenchmarkFig2BucketCounts(b *testing.B)    { runExperiment(b, "fig2") }
func BenchmarkFig4CodeLengthHR(b *testing.B)    { runExperiment(b, "fig4") }
func BenchmarkFig6GQRvsQR(b *testing.B)         { runExperiment(b, "fig6") }
func BenchmarkFig7GQRvsHR(b *testing.B)         { runExperiment(b, "fig7") }
func BenchmarkFig8RecallItems(b *testing.B)     { runExperiment(b, "fig8") }
func BenchmarkFig9TimeToRecall(b *testing.B)    { runExperiment(b, "fig9") }
func BenchmarkFig10CodeLength(b *testing.B)     { runExperiment(b, "fig10") }
func BenchmarkFig11EffectOfK(b *testing.B)      { runExperiment(b, "fig11") }
func BenchmarkFig12MultiTable(b *testing.B)     { runExperiment(b, "fig12") }
func BenchmarkFig13PCAH(b *testing.B)           { runExperiment(b, "fig13") }
func BenchmarkFig14PCAHTime(b *testing.B)       { runExperiment(b, "fig14") }
func BenchmarkFig15SH(b *testing.B)             { runExperiment(b, "fig15") }
func BenchmarkFig16SHTime(b *testing.B)         { runExperiment(b, "fig16") }
func BenchmarkFig17OPQ(b *testing.B)            { runExperiment(b, "fig17") }
func BenchmarkTable2TrainingCost(b *testing.B)  { runExperiment(b, "table2") }
func BenchmarkFig18MIH(b *testing.B)            { runExperiment(b, "fig18") }
func BenchmarkFig19MIHPCAH(b *testing.B)        { runExperiment(b, "fig19") }
func BenchmarkFig20KMH(b *testing.B)            { runExperiment(b, "fig20") }
func BenchmarkFig21Additional(b *testing.B)     { runExperiment(b, "fig21") }
func BenchmarkAblationHeap(b *testing.B)        { runExperiment(b, "abl-heap") }
func BenchmarkAblationSharedTree(b *testing.B)  { runExperiment(b, "abl-tree") }
func BenchmarkAblationCodePacking(b *testing.B) { runExperiment(b, "abl-pack") }
func BenchmarkAblationEarlyStop(b *testing.B)   { runExperiment(b, "abl-earlystop") }
func BenchmarkAblationMPLSH(b *testing.B)       { runExperiment(b, "abl-mplsh") }
func BenchmarkAblationLongCode(b *testing.B)    { runExperiment(b, "abl-longcode") }
func BenchmarkAblationKMHAffinity(b *testing.B) { runExperiment(b, "abl-kmh-affinity") }
func BenchmarkAblationProfile(b *testing.B)     { runExperiment(b, "abl-profile") }

// ---- public-API micro-benchmarks --------------------------------------

func apiIndex(b *testing.B, m QueryMethod) (*Index, *dataset.Dataset) {
	b.Helper()
	ds := dataset.Generate(dataset.GeneratorSpec{
		Name: "bench", N: 20000, Dim: 32, Clusters: 16, LatentDim: 8, Seed: 17,
	})
	ds.SampleQueries(64, 18)
	ix, err := Build(ds.Vectors, ds.Dim, WithQueryMethod(m), WithSeed(19))
	if err != nil {
		b.Fatal(err)
	}
	return ix, ds
}

func benchSearch(b *testing.B, m QueryMethod, budget int) {
	ix, ds := apiIndex(b, m)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := ds.Query(i % ds.NQ())
		if _, err := ix.Search(q, 10, WithMaxCandidates(budget)); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSearchParallel measures single-query Search throughput under
// concurrent callers (b.RunParallel). Search used to serialize every
// caller behind one mutex, so this benchmark could not scale with
// GOMAXPROCS; it is the measurement behind the snapshot-based concurrent
// search design (run with -cpu 1,4 to see the scaling).
func benchSearchParallel(b *testing.B, m QueryMethod, budget int) {
	ix, ds := apiIndex(b, m)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			q := ds.Query(i % ds.NQ())
			i++
			if _, err := ix.Search(q, 10, WithMaxCandidates(budget)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchSearchBatch measures per-query cost through SearchBatch at a
// fixed batch size: b.N counts queries, so ns/op is directly comparable
// with the single-query benchmarks above.
func benchSearchBatch(b *testing.B, m QueryMethod, batch, budget int) {
	ix, ds := apiIndex(b, m)
	flat := make([]float32, 0, batch*ds.Dim)
	for qi := 0; qi < batch; qi++ {
		flat = append(flat, ds.Query(qi%ds.NQ())...)
	}
	// Warm the searcher pool off the clock.
	if _, err := ix.SearchBatch(flat, 10, WithMaxCandidates(budget)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; done += batch {
		if _, err := ix.SearchBatch(flat, 10, WithMaxCandidates(budget)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSearchBatch1Budget1000(b *testing.B)   { benchSearchBatch(b, GQR, 1, 1000) }
func BenchmarkSearchBatch64Budget1000(b *testing.B)  { benchSearchBatch(b, GQR, 64, 1000) }
func BenchmarkSearchBatch256Budget1000(b *testing.B) { benchSearchBatch(b, GQR, 256, 1000) }

func BenchmarkSearchParallel(b *testing.B)      { benchSearchParallel(b, GQR, 1000) }
func BenchmarkSearchParallelHR(b *testing.B)    { benchSearchParallel(b, HR, 1000) }
func BenchmarkSearchGQRBudget1000(b *testing.B) { benchSearch(b, GQR, 1000) }
func BenchmarkSearchGHRBudget1000(b *testing.B) { benchSearch(b, GHR, 1000) }
func BenchmarkSearchHRBudget1000(b *testing.B)  { benchSearch(b, HR, 1000) }
func BenchmarkSearchQRBudget1000(b *testing.B)  { benchSearch(b, QR, 1000) }
func BenchmarkSearchMIHBudget1000(b *testing.B) { benchSearch(b, MIH, 1000) }

// benchSearchTraced measures the flight recorder's enabled cost: every
// query records per-stage spans and is captured into the ring. The
// delta against BenchmarkSearchGQRBudget1000 is the price of tracing a
// query; the disabled path (no tracing options) is the plain benchmark
// above and must not move when instrumentation changes.
func benchSearchTraced(b *testing.B, sampleEvery int) {
	ds := dataset.Generate(dataset.GeneratorSpec{
		Name: "bench", N: 20000, Dim: 32, Clusters: 16, LatentDim: 8, Seed: 17,
	})
	ds.SampleQueries(64, 18)
	ix, err := Build(ds.Vectors, ds.Dim, WithSeed(19), WithTracing(sampleEvery))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := ds.Query(i % ds.NQ())
		if _, err := ix.Search(q, 10, WithMaxCandidates(1000)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSearchGQRBudget1000TracedEvery(b *testing.B) { benchSearchTraced(b, 1) }
func BenchmarkSearchGQRBudget1000Traced1In100(b *testing.B) {
	benchSearchTraced(b, 100)
}

func BenchmarkBuildITQ20k(b *testing.B) {
	ds := dataset.Generate(dataset.GeneratorSpec{
		Name: "build", N: 20000, Dim: 32, Clusters: 16, LatentDim: 8, Seed: 21,
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(ds.Vectors, ds.Dim, WithSeed(int64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuild sweeps the build pipeline over learner × worker bound
// on the 20k×32 corpus. The index is bit-for-bit identical at every p
// (TestParallelBuildIsBitForBitIdentical), so the sub-benchmarks
// measure pure build latency; on a multi-core host the p=8 rows should
// approach the core count's speedup over p=1, while on a single-core
// host all rows converge (run with -cpu to pin GOMAXPROCS).
func BenchmarkBuild(b *testing.B) {
	ds := dataset.Generate(dataset.GeneratorSpec{
		Name: "build", N: 20000, Dim: 32, Clusters: 16, LatentDim: 8, Seed: 21,
	})
	for _, algo := range []Algorithm{ITQ, PCAH, KMH} {
		for _, p := range []int{1, 2, 8} {
			b.Run(fmt.Sprintf("%s/p%d", algo, p), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := Build(ds.Vectors, ds.Dim,
						WithAlgorithm(algo),
						WithSeed(21),
						WithBuildParallelism(p)); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
