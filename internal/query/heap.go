package query

// topK is a bounded max-heap holding the k best (smallest-distance)
// candidates seen so far: the evaluation stage's data structure. Ties on
// distance are broken toward smaller ids so results are deterministic.
type topK struct {
	k     int
	dists []float64
	ids   []int32
}

func newTopK(k int) *topK {
	return &topK{k: k, dists: make([]float64, 0, k), ids: make([]int32, 0, k)}
}

// Reset empties the heap and rebinds it to a new k, retaining the entry
// arrays when their capacity suffices — the Searcher-scratch path that
// keeps steady-state searches allocation-free.
func (t *topK) Reset(k int) {
	t.k = k
	if cap(t.dists) < k {
		t.dists = make([]float64, 0, k)
		t.ids = make([]int32, 0, k)
		return
	}
	t.dists = t.dists[:0]
	t.ids = t.ids[:0]
}

// worse reports whether entry i is "worse" than entry j in max-heap
// order (greater distance, or equal distance with greater id).
func (t *topK) worse(i, j int) bool {
	if t.dists[i] != t.dists[j] {
		return t.dists[i] > t.dists[j]
	}
	return t.ids[i] > t.ids[j]
}

// Offer considers a candidate; it reports whether the candidate entered
// the top k.
func (t *topK) Offer(dist float64, id int32) bool {
	if len(t.dists) < t.k {
		t.dists = append(t.dists, dist)
		t.ids = append(t.ids, id)
		i := len(t.dists) - 1
		for i > 0 {
			p := (i - 1) / 2
			if !t.worse(i, p) {
				break
			}
			t.swap(i, p)
			i = p
		}
		return true
	}
	if dist > t.dists[0] || (dist == t.dists[0] && id > t.ids[0]) {
		return false
	}
	t.dists[0], t.ids[0] = dist, id
	t.siftDown(0)
	return true
}

func (t *topK) swap(i, j int) {
	t.dists[i], t.dists[j] = t.dists[j], t.dists[i]
	t.ids[i], t.ids[j] = t.ids[j], t.ids[i]
}

func (t *topK) siftDown(i int) {
	n := len(t.dists)
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < n && t.worse(l, largest) {
			largest = l
		}
		if r < n && t.worse(r, largest) {
			largest = r
		}
		if largest == i {
			return
		}
		t.swap(i, largest)
		i = largest
	}
}

// Full reports whether k candidates have been collected.
func (t *topK) Full() bool { return len(t.dists) == t.k }

// Worst returns the current k-th smallest distance (+Inf semantics are
// the caller's: only meaningful when Full).
func (t *topK) Worst() float64 { return t.dists[0] }

// AppendIDs drains the heap's ids into dst (append semantics, heap
// order), destroying the heap — the non-allocating counterpart of
// Sorted for callers that re-score the entries anyway, like the
// re-ranking stage handing its survivors to exact evaluation.
func (t *topK) AppendIDs(dst []int32) []int32 {
	dst = append(dst, t.ids...)
	t.dists = t.dists[:0]
	t.ids = t.ids[:0]
	return dst
}

// Sorted extracts the entries in ascending (distance, id) order,
// destroying the heap.
func (t *topK) Sorted() (ids []int32, dists []float64) {
	n := len(t.dists)
	ids = make([]int32, n)
	dists = make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		ids[i] = t.ids[0]
		dists[i] = t.dists[0]
		last := len(t.dists) - 1
		t.swap(0, last)
		t.dists = t.dists[:last]
		t.ids = t.ids[:last]
		t.siftDown(0)
	}
	return ids, dists
}
