package quantization

import (
	"testing"

	"gqr/internal/dataset"
)

// benchCorpus is the re-ranking workload's shape: 10 000 × 128.
func benchCorpus() *dataset.Dataset {
	return dataset.Generate(dataset.GeneratorSpec{Name: "bench", N: 10000, Dim: 128, Clusters: 32, Seed: 5})
}

// BenchmarkTrainReranker trains the serving quantizer at m 16, k 256 on
// 10 000 × 128 at GOMAXPROCS workers: Lloyd k-means, nearly all of it
// nearest-centroid assignment, and the final encode.
func BenchmarkTrainReranker(b *testing.B) {
	ds := benchCorpus()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rr, err := TrainReranker(ds.Vectors, ds.N(), ds.Dim, 16, 256, false, 1, 0)
		if err != nil {
			b.Fatal(err)
		}
		rr.EncodeAll(ds.Vectors, ds.N(), 0)
	}
}

// BenchmarkADCRows builds one query's lookup table at m 16, k 256 over
// 128 dimensions (subspace width 8): the per-query cost of re-ranking,
// read through the blocked codebook.
func BenchmarkADCRows(b *testing.B) {
	ds := dataset.Generate(dataset.GeneratorSpec{Name: "bench", N: 2000, Dim: 128, Clusters: 32, Seed: 5})
	rr, err := TrainReranker(ds.Vectors, ds.N(), ds.Dim, 16, 256, false, 1, 0)
	if err != nil {
		b.Fatal(err)
	}
	rows := make([][256]float32, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = rr.ADCRows(ds.Vector(i%ds.N()), rows, nil)
	}
}
