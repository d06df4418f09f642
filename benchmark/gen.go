package main

import "math/rand"

// The benchmark owns its input generator so that inputs never drift with
// the program. A corpus is a mixture of mixClusters anisotropic Gaussians:
// each cluster is an affine image of a latent Gaussian of dim/8 dimensions
// with a decaying spectrum, plus isotropic noise. That is the structure
// PCA-family hashing relies on (a few strong correlated directions over a
// noise floor), and with unit centre spread the clusters overlap enough
// that learned codes fill roughly n/10 buckets.
const (
	mixClusters = 64
	mixNoise    = 0.5
	mixSpread   = 1.0
)

// mixture draws vectors from one Gaussian mixture. The mixture's shape (the
// centres and loadings) is part of the workload and the same on every run:
// how evenly the clusters fall into buckets moves latency by several
// percent, and that is a property of a corpus, not noise. The seed draws
// the sample: base vectors, held-out queries and the vectors later written
// all come from it, in that order, so a seed fixes every input of a run.
type mixture struct {
	dim, latent int
	rng         *rand.Rand
	centers     []float32 // mixClusters × dim
	loadings    []float32 // mixClusters × dim × latent
	lat         []float32
}

func newMixture(dim int, seed int64) *mixture {
	m := &mixture{dim: dim, latent: max(dim/8, 1), rng: rand.New(rand.NewSource(seed))}
	shape := rand.New(rand.NewSource(int64(dim)))
	m.centers = make([]float32, mixClusters*dim)
	for i := range m.centers {
		m.centers[i] = float32(shape.NormFloat64() * mixSpread)
	}
	m.loadings = make([]float32, mixClusters*dim*m.latent)
	for c := 0; c < mixClusters; c++ {
		for j := 0; j < dim; j++ {
			row := m.loadings[(c*dim+j)*m.latent:][:m.latent]
			for l := range row {
				row[l] = float32(shape.NormFloat64() * 2 / (1 + 0.5*float64(l)))
			}
		}
	}
	m.lat = make([]float32, m.latent)
	return m
}

// draw returns n fresh rows as one row-major block.
func (m *mixture) draw(n int) []float32 {
	out := make([]float32, n*m.dim)
	for i := 0; i < n; i++ {
		c := m.rng.Intn(mixClusters)
		for l := range m.lat {
			m.lat[l] = float32(m.rng.NormFloat64())
		}
		row := out[i*m.dim:][:m.dim]
		ctr := m.centers[c*m.dim:][:m.dim]
		for j := range row {
			v := ctr[j] + float32(m.rng.NormFloat64()*mixNoise)
			for l, w := range m.loadings[(c*m.dim+j)*m.latent:][:m.latent] {
				v += w * m.lat[l]
			}
			row[j] = v
		}
	}
	return out
}

// opKind is one operation of the mixed read/write sequence.
type opKind uint8

const (
	opSearch opKind = iota
	opAdd
	opDelete
	opUpdate
)

// mixedOps returns a seeded sequence of n operation kinds: 80 % searches,
// 14 % adds, 3 % deletes, 3 % updates, in exactly those numbers and in an
// order the seed shuffles. Exact numbers put the same count of records in
// the memtable and the log when the sequence ends, whatever the seed, so
// that recovery always replays the same amount. Which id a delete or update
// hits is decided while the sequence runs, from the same generator, because
// it depends on which ids are live by then.
func mixedOps(rng *rand.Rand, n int) []opKind {
	ops := make([]opKind, n)
	for i := range ops {
		switch p := i * 100 / n; {
		case p < 80:
			ops[i] = opSearch
		case p < 94:
			ops[i] = opAdd
		case p < 97:
			ops[i] = opDelete
		default:
			ops[i] = opUpdate
		}
	}
	rng.Shuffle(n, func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}
