package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"gqr/internal/server"
)

// distTolerance is how far a returned distance may sit from the oracle's,
// relative to the oracle's value. The program accumulates in float32 blocks
// and the oracle in float64, which differ by about 1e-6 at these dimensions.
const distTolerance = 1e-4

// oracle is the benchmark's own model of what the index must hold: every
// vector ever acknowledged, by id, and which ids are deleted. It answers
// exact k-NN with a scalar scan that shares no code with the program, so
// that a change which makes the program faster and wrong fails here.
type oracle struct {
	dim  int
	vecs []float32 // row id is the vector with that id
	dead []bool
	live []int // ids not deleted, in no particular order
	pos  []int // pos[id] is the index of id in live, -1 when deleted
}

func newOracle(base []float32, dim int) *oracle {
	n := len(base) / dim
	o := &oracle{dim: dim, vecs: append([]float32(nil), base...), dead: make([]bool, n), live: make([]int, n), pos: make([]int, n)}
	for i := range o.live {
		o.live[i], o.pos[i] = i, i
	}
	return o
}

func (o *oracle) items() int { return len(o.dead) }

func (o *oracle) row(id int) []float32 { return o.vecs[id*o.dim:][:o.dim] }

// add records an acknowledged add; the index hands out ids in row order.
func (o *oracle) add(vec []float32) int {
	id := o.items()
	o.vecs = append(o.vecs, vec...)
	o.dead = append(o.dead, false)
	o.pos = append(o.pos, len(o.live))
	o.live = append(o.live, id)
	return id
}

func (o *oracle) remove(id int) {
	p, last := o.pos[id], o.live[len(o.live)-1]
	o.live[p], o.pos[last] = last, p
	o.live = o.live[:len(o.live)-1]
	o.dead[id], o.pos[id] = true, -1
}

// dist2 is the squared Euclidean distance, accumulated in float64.
func dist2(a, b []float32) float64 {
	var s float64
	for j, x := range a {
		d := float64(x) - float64(b[j])
		s += d * d
	}
	return s
}

// topK returns the ids of the k live vectors nearest to q, nearest first,
// ties broken by id.
func (o *oracle) topK(q []float32, k int) []int {
	type cand struct {
		d  float64
		id int
	}
	best := make([]cand, 0, k+1)
	for id, dead := range o.dead {
		if dead {
			continue
		}
		d := dist2(q, o.row(id))
		if len(best) == k && d >= best[k-1].d {
			continue
		}
		i := sort.Search(len(best), func(i int) bool { return best[i].d > d })
		best = append(best, cand{})
		copy(best[i+1:], best[i:])
		best[i] = cand{d, id}
		if len(best) > k {
			best = best[:k]
		}
	}
	ids := make([]int, len(best))
	for i, c := range best {
		ids[i] = c.id
	}
	return ids
}

// groundTruth answers the first nq rows of queries exactly, on every core.
func (o *oracle) groundTruth(queries []float32, nq, k int) [][]int {
	gt := make([][]int, nq)
	var wg sync.WaitGroup
	workers := runtime.GOMAXPROCS(0)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < nq; i += workers {
				gt[i] = o.topK(queries[i*o.dim:][:o.dim], k)
			}
		}(w)
	}
	wg.Wait()
	return gt
}

// check validates one answer against the model: k results, nearest first,
// each a live id reported once, each distance the oracle's own.
func (o *oracle) check(q []float32, nbrs []server.NeighborJSON, k int) error {
	if len(nbrs) != k {
		return fmt.Errorf("%d results, want %d", len(nbrs), k)
	}
	for i, nb := range nbrs {
		if nb.ID < 0 || nb.ID >= o.items() {
			return fmt.Errorf("result %d: id %d out of range", i, nb.ID)
		}
		if o.dead[nb.ID] {
			return fmt.Errorf("result %d: id %d is deleted", i, nb.ID)
		}
		if i > 0 && nb.Distance < nbrs[i-1].Distance {
			return fmt.Errorf("result %d: not sorted by distance", i)
		}
		for _, prev := range nbrs[:i] {
			if prev.ID == nb.ID {
				return fmt.Errorf("result %d: id %d reported twice", i, nb.ID)
			}
		}
		want := math.Sqrt(dist2(q, o.row(nb.ID)))
		if math.Abs(nb.Distance-want) > distTolerance*math.Max(want, 1e-9) {
			return fmt.Errorf("result %d: distance %g, oracle says %g", i, nb.Distance, want)
		}
	}
	return nil
}

// recall is the share of the exact neighbours that the answer contains.
func recall(truth []int, nbrs []server.NeighborJSON) float64 {
	hit := 0
	for _, nb := range nbrs {
		for _, id := range truth {
			if id == nb.ID {
				hit++
				break
			}
		}
	}
	return float64(hit) / float64(len(truth))
}
