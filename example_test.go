package gqr_test

import (
	"fmt"
	"math/rand"

	"gqr"
)

// exampleVectors builds a deterministic toy dataset: ten tight clusters
// of 100 vectors each.
func exampleVectors() ([]float32, int) {
	const dim = 16
	rng := rand.New(rand.NewSource(1))
	var vecs []float32
	for c := 0; c < 10; c++ {
		for i := 0; i < 100; i++ {
			for j := 0; j < dim; j++ {
				vecs = append(vecs, float32(c*10)+float32(rng.NormFloat64()))
			}
		}
	}
	return vecs, dim
}

func ExampleBuild() {
	vecs, dim := exampleVectors()
	ix, err := gqr.Build(vecs, dim,
		gqr.WithAlgorithm(gqr.PCAH),
		gqr.WithQueryMethod(gqr.GQR))
	if err != nil {
		panic(err)
	}
	st := ix.Stats()
	fmt.Println(st.Items, "vectors,", st.Algorithm, "+", st.Method)
	// Output: 1000 vectors, pcah + gqr
}

func ExampleIndex_Search() {
	vecs, dim := exampleVectors()
	ix, err := gqr.Build(vecs, dim, gqr.WithSeed(3))
	if err != nil {
		panic(err)
	}
	// Search with vector 0 itself: it must be its own nearest neighbor.
	nbrs, err := ix.Search(vecs[:dim], 3, gqr.WithMaxCandidates(200))
	if err != nil {
		panic(err)
	}
	fmt.Println("top result:", nbrs[0].ID, "distance:", nbrs[0].Distance)
	// Output: top result: 0 distance: 0
}

func ExampleIndex_Search_radius() {
	vecs, dim := exampleVectors()
	ix, err := gqr.Build(vecs, dim, gqr.WithSeed(4))
	if err != nil {
		panic(err)
	}
	// Bounded-radius query: only items within distance 2 come back, and
	// the QD threshold rule stops probing early.
	nbrs, err := ix.Search(vecs[:dim], 100, gqr.WithRadius(2))
	if err != nil {
		panic(err)
	}
	ok := true
	for _, nb := range nbrs {
		if nb.Distance > 2 {
			ok = false
		}
	}
	fmt.Println("all within radius:", ok)
	// Output: all within radius: true
}

func ExampleIndex_SaveFile() {
	vecs, dim := exampleVectors()
	ix, err := gqr.Build(vecs, dim, gqr.WithSeed(5))
	if err != nil {
		panic(err)
	}
	path := "/tmp/gqr-example-index.gqr"
	if err := ix.SaveFile(path); err != nil {
		panic(err)
	}
	// Reload against the same vectors: identical results, no retraining.
	ix2, err := gqr.LoadFile(path, vecs, dim)
	if err != nil {
		panic(err)
	}
	a, _ := ix.Search(vecs[:dim], 1)
	b, _ := ix2.Search(vecs[:dim], 1)
	fmt.Println("same top hit after reload:", a[0].ID == b[0].ID)
	// Output: same top hit after reload: true
}
