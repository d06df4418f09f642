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

// BenchmarkADCRows builds one query's lookup table, the per-query cost
// of re-ranking: at m 16, k 256 over 128 dimensions (subspace width 8,
// the batch-rerank workload's shape), at width 4 (m 8 over 32
// dimensions, the pairwise arm), at width 16 (m 8 over 128,
// WithReranking's default m), and under an OPQ rotation at m 16 over
// 128, the rotation included.
func BenchmarkADCRows(b *testing.B) {
	ds := dataset.Generate(dataset.GeneratorSpec{Name: "bench", N: 2000, Dim: 128, Clusters: 32, Seed: 5})
	for _, c := range []struct {
		name string
		d, m int
		opq  bool
	}{
		{"m16-d128", 128, 16, false},
		{"m8-d32", 32, 8, false},
		{"m8-d128", 128, 8, false},
		{"opq-m16-d128", 128, 16, true},
	} {
		data := ds.Vectors
		if c.d < ds.Dim {
			data = make([]float32, 0, ds.N()*c.d)
			for i := 0; i < ds.N(); i++ {
				data = append(data, ds.Vector(i)[:c.d]...)
			}
		}
		rr, err := TrainReranker(data, ds.N(), c.d, c.m, 256, c.opq, 1, 0)
		if err != nil {
			b.Fatal(err)
		}
		rows := make([][256]float32, c.m)
		rot := make([]float32, c.d)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rows = rr.ADCRows(data[i%ds.N()*c.d:][:c.d], rows, rot)
			}
		})
	}
}
