package gqr

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// corpusState is the oracle's book-keeping for a churned corpus: every
// vector ever added (by id — ids are never reused) and which ids are
// still live. It is the ground truth the index implementations are
// judged against.
type corpusState struct {
	dim  int
	vecs [][]float32 // vecs[id], including dead ids
	live []int       // live ids, ascending
	meta map[int]uint64
}

func newCorpusState(initial []float32, dim int) *corpusState {
	cs := &corpusState{dim: dim, meta: map[int]uint64{}}
	for i := 0; i+dim <= len(initial); i += dim {
		cs.vecs = append(cs.vecs, initial[i:i+dim])
		cs.live = append(cs.live, i/dim)
	}
	return cs
}

func (cs *corpusState) add(vec []float32, meta uint64) int {
	id := len(cs.vecs)
	cs.vecs = append(cs.vecs, vec)
	cs.live = append(cs.live, id)
	if meta != 0 {
		cs.meta[id] = meta
	}
	return id
}

func (cs *corpusState) delete(id int) {
	for i, v := range cs.live {
		if v == id {
			cs.live = append(cs.live[:i], cs.live[i+1:]...)
			return
		}
	}
}

// liveBlock returns the live vectors concatenated in id order — the
// build block for a from-scratch index over only the live corpus.
func (cs *corpusState) liveBlock() []float32 {
	out := make([]float32, 0, len(cs.live)*cs.dim)
	for _, id := range cs.live {
		out = append(out, cs.vecs[id]...)
	}
	return out
}

// bruteTopK returns the k smallest exact Euclidean distances from q to
// the live vectors.
func (cs *corpusState) bruteTopK(q []float32, k int) []float64 {
	dists := make([]float64, 0, len(cs.live))
	for _, id := range cs.live {
		var s float64
		for i, x := range q {
			d := float64(x) - float64(cs.vecs[id][i])
			s += d * d
		}
		dists = append(dists, math.Sqrt(s))
	}
	sort.Float64s(dists)
	if len(dists) > k {
		dists = dists[:k]
	}
	return dists
}

// gaussBlock returns n×dim Gaussian vectors from a fixed seed.
func gaussBlock(n, dim int, seed int64) []float32 {
	rng := rand.New(rand.NewSource(seed))
	v := make([]float32, n*dim)
	for i := range v {
		v[i] = float32(rng.NormFloat64())
	}
	return v
}

// sameNeighbors fails unless both result lists are fully identical —
// same ids, bit-identical distances.
func sameNeighbors(t *testing.T, label string, got, want []Neighbor) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d neighbors, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i].ID != want[i].ID || math.Float64bits(got[i].Distance) != math.Float64bits(want[i].Distance) {
			t.Fatalf("%s: rank %d: got {%d %.12f}, want {%d %.12f}",
				label, i, got[i].ID, got[i].Distance, want[i].ID, want[i].Distance)
		}
	}
}

// applyOp applies one random lifecycle operation to the tracked state
// and to every index under test, checking that all indexes agree on the
// assigned id.
func applyOp(t *testing.T, rng *rand.Rand, cs *corpusState, dim int, ixs ...*Index) {
	t.Helper()
	switch op := rng.Intn(10); {
	case op < 4 || len(cs.live) < 2: // add
		vec := make([]float32, dim)
		for i := range vec {
			vec[i] = float32(rng.NormFloat64())
		}
		meta := uint64(rng.Intn(4)) // sometimes zero: both slab paths
		wantID := cs.add(vec, meta)
		for _, ix := range ixs {
			id, err := ix.AddWithMeta(vec, meta)
			if err != nil {
				t.Fatal(err)
			}
			if id != wantID {
				t.Fatalf("add returned id %d, oracle expects %d", id, wantID)
			}
		}
	case op < 7: // delete
		id := cs.live[rng.Intn(len(cs.live))]
		cs.delete(id)
		for _, ix := range ixs {
			if err := ix.Delete(id); err != nil {
				t.Fatal(err)
			}
		}
	default: // update
		id := cs.live[rng.Intn(len(cs.live))]
		vec := make([]float32, dim)
		for i := range vec {
			vec[i] = float32(rng.NormFloat64())
		}
		meta := cs.meta[id]
		cs.delete(id)
		wantID := cs.add(vec, meta)
		for _, ix := range ixs {
			newID, err := ix.Update(id, vec)
			if err != nil {
				t.Fatal(err)
			}
			if newID != wantID {
				t.Fatalf("update returned id %d, oracle expects %d", newID, wantID)
			}
		}
	}
}

// checkOracle compares the subject against the reference index (full
// result identity, budgeted and unbudgeted), against exact brute force
// over the live corpus, and against a freshly built index over only the
// live vectors (identical distance profile — ids differ because the
// fresh index renumbers rows).
func checkOracle(t *testing.T, label string, cs *corpusState, queries []float32, dim, k int, subject, reference *Index) {
	t.Helper()
	st := subject.Stats()
	if st.LiveItems != len(cs.live) {
		t.Fatalf("%s: LiveItems = %d, oracle has %d", label, st.LiveItems, len(cs.live))
	}
	if st.Items != len(cs.vecs) {
		t.Fatalf("%s: Items = %d, oracle allocated %d ids", label, st.Items, len(cs.vecs))
	}
	dead := make(map[int]bool, len(cs.vecs)-len(cs.live))
	for id := range cs.vecs {
		dead[id] = true
	}
	for _, id := range cs.live {
		delete(dead, id)
	}
	for qi := 0; qi+dim <= len(queries); qi += dim {
		q := queries[qi : qi+dim]
		got, err := subject.Search(q, k)
		if err != nil {
			t.Fatal(err)
		}
		want, err := reference.Search(q, k)
		if err != nil {
			t.Fatal(err)
		}
		sameNeighbors(t, label+": subject vs reference (unbudgeted)", got, want)
		for _, nb := range got {
			if dead[nb.ID] {
				t.Fatalf("%s: deleted id %d returned", label, nb.ID)
			}
		}
		// Unbudgeted search is a full probe, so its distances must equal
		// exact brute force over the live corpus.
		brute := cs.bruteTopK(q, k)
		if len(got) != len(brute) {
			t.Fatalf("%s: %d neighbors, brute force has %d", label, len(got), len(brute))
		}
		for i := range got {
			// Tolerance, not bit equality: the evaluation kernel and this
			// naive loop accumulate in different orders.
			if d := math.Abs(got[i].Distance - brute[i]); d > 1e-9 {
				t.Fatalf("%s: rank %d distance %.12f, brute force %.12f", label, i, got[i].Distance, brute[i])
			}
		}
		// Budgeted: subject and reference walk the same probe sequence
		// over the same buckets, so the truncated gather agrees too.
		gotB, err := subject.Search(q, k, WithMaxCandidates(120))
		if err != nil {
			t.Fatal(err)
		}
		wantB, err := reference.Search(q, k, WithMaxCandidates(120))
		if err != nil {
			t.Fatal(err)
		}
		sameNeighbors(t, label+": subject vs reference (budget 120)", gotB, wantB)
		for _, nb := range gotB {
			if dead[nb.ID] {
				t.Fatalf("%s: deleted id %d returned under budget", label, nb.ID)
			}
		}
	}
	// A from-scratch build over only the live vectors trains its own
	// hashers (different buckets, renumbered ids) but a full probe is
	// exact for it too: the distance profiles must be bit-identical.
	fresh, err := Build(cs.liveBlock(), dim, WithSeed(997))
	if err != nil {
		t.Fatal(err)
	}
	for qi := 0; qi+dim <= len(queries); qi += dim {
		q := queries[qi : qi+dim]
		got, err := subject.Search(q, k)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Search(q, k)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d neighbors, fresh build returns %d", label, len(got), len(want))
		}
		for i := range got {
			if d := math.Abs(got[i].Distance - want[i].Distance); d > 1e-9 {
				t.Fatalf("%s: rank %d: churned %.12f vs fresh build %.12f", label, i, got[i].Distance, want[i].Distance)
			}
		}
	}
}

// TestLifecycleOracleChurn is the lifecycle oracle: for every querying
// method, a subject index churned through random Add/Delete/Update
// interleavings — with seals, background merges and inline compactions
// along the way — must return exactly the same results as a reference
// index that saw the same operations but never sealed (everything in
// one giant memtable), as exact brute force over the live vectors, and
// (by distance) as a fresh build over only the live corpus.
func TestLifecycleOracleChurn(t *testing.T) {
	const (
		dim, baseN = 8, 400
		ops        = 240
		k          = 8
	)
	base := gaussBlock(baseN, dim, 51)
	queries := gaussBlock(6, dim, 52)
	for _, method := range []QueryMethod{GQR, QR, HR, GHR, MIH} {
		t.Run(string(method), func(t *testing.T) {
			subject, err := Build(base, dim, WithSeed(53), WithQueryMethod(method), WithMemtableSize(32))
			if err != nil {
				t.Fatal(err)
			}
			reference, err := Build(base, dim, WithSeed(53), WithQueryMethod(method), WithMemtableSize(1<<20))
			if err != nil {
				t.Fatal(err)
			}
			cs := newCorpusState(base, dim)
			rng := rand.New(rand.NewSource(54))
			for i := 0; i < ops; i++ {
				applyOp(t, rng, cs, dim, subject, reference)
				if i%80 == 79 {
					if err := subject.Compact(); err != nil {
						t.Fatal(err)
					}
				}
			}
			checkOracle(t, string(method)+"/churned", cs, queries, dim, k, subject, reference)
			if st := subject.Stats(); st.Seals == 0 {
				t.Fatalf("no seals after %d ops at memtable 32", ops)
			}
			// Compaction purges every pending tombstone and must not
			// change a single result.
			if err := subject.Compact(); err != nil {
				t.Fatal(err)
			}
			if st := subject.Stats(); st.PendingTombstones != 0 {
				t.Fatalf("%d tombstones still pending after Compact", st.PendingTombstones)
			}
			checkOracle(t, string(method)+"/compacted", cs, queries, dim, k, subject, reference)
		})
	}
}

// TestLifecycleDurableCrashOracle interleaves crash-recovery with the
// churn: the durable subject is abandoned mid-sequence (no Close) and
// recovered from its data directory twice; each recovered incarnation
// continues the same operation stream and must stay bit-identical to
// the never-crashed in-memory reference throughout.
func TestLifecycleDurableCrashOracle(t *testing.T) {
	const (
		dim, baseN = 8, 300
		k          = 8
	)
	base := gaussBlock(baseN, dim, 61)
	queries := gaussBlock(5, dim, 62)
	dir := t.TempDir()

	subject, err := Build(base, dim, WithSeed(63), WithMemtableSize(32))
	if err != nil {
		t.Fatal(err)
	}
	if err := subject.EnableDurability(dir); err != nil {
		t.Fatal(err)
	}
	reference, err := Build(base, dim, WithSeed(63), WithMemtableSize(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	cs := newCorpusState(base, dim)
	rng := rand.New(rand.NewSource(64))
	for round := 0; round < 3; round++ {
		for i := 0; i < 60; i++ {
			applyOp(t, rng, cs, dim, subject, reference)
		}
		if round == 2 {
			break
		}
		// Crash: quiesce background persists so the directory is stable,
		// then abandon the index without Close and recover. The replayed
		// WAL holds add, delete and update (add+delete) frames from the
		// operations since the last seal.
		if err := subject.Compact(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			applyOp(t, rng, cs, dim, subject, reference)
		}
		want := saveBytes(t, subject)
		subject, err = Recover(dir, base, dim, WithMemtableSize(32))
		if err != nil {
			t.Fatalf("round %d: recover: %v", round, err)
		}
		if got := saveBytes(t, subject); !bytes.Equal(got, want) {
			t.Fatalf("round %d: recovered index is not bit-identical to the crashed one", round)
		}
	}
	checkOracle(t, "crash-churned", cs, queries, dim, k, subject, reference)
	if err := subject.Close(); err != nil {
		t.Fatal(err)
	}
	// A final recovery after the graceful Close replays nothing and
	// still agrees with the reference.
	rec, err := Recover(dir, base, dim, WithMemtableSize(32))
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	checkOracle(t, "recovered", cs, queries, dim, k, rec, reference)
}

// TestLifecycleDeleteSemantics pins the Delete contract: tombstoned
// items vanish from results, ids are never reused, and unknown or
// double deletes fail with ErrNotFound.
func TestLifecycleDeleteSemantics(t *testing.T) {
	const dim, n = 6, 80
	vecs := gaussBlock(n, dim, 71)
	ix, err := Build(vecs, dim, WithSeed(72))
	if err != nil {
		t.Fatal(err)
	}
	victim := 17
	if err := ix.Delete(victim); err != nil {
		t.Fatal(err)
	}
	// The deleted item's own vector no longer finds it.
	nbrs, err := ix.Search(vecs[victim*dim:(victim+1)*dim], 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, nb := range nbrs {
		if nb.ID == victim {
			t.Fatalf("deleted id %d still returned", victim)
		}
	}
	st := ix.Stats()
	if st.LiveItems != n-1 || st.Tombstones != 1 || st.Deletes != 1 {
		t.Fatalf("stats after one delete: live=%d tombstones=%d deletes=%d", st.LiveItems, st.Tombstones, st.Deletes)
	}
	for _, bad := range []int{victim, -1, n, n + 100} {
		if err := ix.Delete(bad); !errors.Is(err, ErrNotFound) {
			t.Fatalf("Delete(%d) = %v, want ErrNotFound", bad, err)
		}
	}
	// A new Add allocates a fresh id past the tombstone — never reuse.
	id, err := ix.Add(vecs[:dim])
	if err != nil {
		t.Fatal(err)
	}
	if id != n {
		t.Fatalf("Add after delete returned id %d, want %d", id, n)
	}
}

// TestLifecycleUpdateSemantics pins the Update contract: wrong
// dimension fails with ErrDimension before anything is applied, unknown
// ids fail with ErrNotFound, and a successful update moves the item to
// a new id while keeping its metadata word.
func TestLifecycleUpdateSemantics(t *testing.T) {
	const dim, n = 6, 60
	vecs := gaussBlock(n, dim, 73)
	ix, err := Build(vecs, dim, WithSeed(74))
	if err != nil {
		t.Fatal(err)
	}
	tagged, err := ix.AddWithMeta(gaussBlock(1, dim, 75), 0b100)
	if err != nil {
		t.Fatal(err)
	}
	before := ix.Stats()
	if _, err := ix.Update(tagged, vecs[:dim-1]); !errors.Is(err, ErrDimension) {
		t.Fatalf("short vector: %v, want ErrDimension", err)
	}
	if _, err := ix.Update(n+50, vecs[:dim]); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown id: %v, want ErrNotFound", err)
	}
	if after := ix.Stats(); after.Items != before.Items || after.Tombstones != before.Tombstones {
		t.Fatal("failed Update mutated the index")
	}
	repl := gaussBlock(1, dim, 76)
	newID, err := ix.Update(tagged, repl)
	if err != nil {
		t.Fatal(err)
	}
	if newID != n+1 {
		t.Fatalf("update returned id %d, want %d", newID, n+1)
	}
	if _, err := ix.Update(tagged, repl); !errors.Is(err, ErrNotFound) {
		t.Fatalf("update of the old id after Update: %v, want ErrNotFound", err)
	}
	// The replacement vector is found at its new id, distance zero, and
	// kept the metadata word — the tag-mask search still matches it.
	nbrs, err := ix.Search(repl, 1, WithTagMask(0b100))
	if err != nil {
		t.Fatal(err)
	}
	if len(nbrs) != 1 || nbrs[0].ID != newID || nbrs[0].Distance != 0 {
		t.Fatalf("updated item not found under its tag: %+v", nbrs)
	}
}

// TestLifecycleCompactCanonicalForm pins "compaction = canonical form":
// Save always streams the purged view, so the persisted bytes are a
// fixpoint of Compact — identical before and after the purge, identical
// to an index that saw the same operations without any LSM churn, and
// identical again after a save/load round trip.
func TestLifecycleCompactCanonicalForm(t *testing.T) {
	const dim, baseN, addN = 6, 200, 90
	base := gaussBlock(baseN, dim, 81)
	adds := gaussBlock(addN, dim, 82)

	subject, err := Build(base, dim, WithSeed(83), WithMemtableSize(16))
	if err != nil {
		t.Fatal(err)
	}
	reference, err := Build(base, dim, WithSeed(83), WithMemtableSize(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < addN; i++ {
		vec := adds[i*dim : (i+1)*dim]
		if _, err := subject.Add(vec); err != nil {
			t.Fatal(err)
		}
		if _, err := reference.Add(vec); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(84))
	for _, id := range rng.Perm(baseN + addN)[:40] {
		if err := subject.Delete(id); err != nil {
			t.Fatal(err)
		}
		if err := reference.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	saveBefore := saveBytes(t, subject)
	if err := subject.Compact(); err != nil {
		t.Fatal(err)
	}
	st := subject.Stats()
	if st.PendingTombstones != 0 {
		t.Fatalf("%d tombstones pending after Compact", st.PendingTombstones)
	}
	if st.Tombstones != 40 {
		t.Fatalf("Compact lost tombstones: %d, want 40", st.Tombstones)
	}
	saveAfter := saveBytes(t, subject)
	if !bytes.Equal(saveBefore, saveAfter) {
		t.Fatal("Compact changed the persisted bytes: Save is not the canonical form")
	}
	if got := saveBytes(t, reference); !bytes.Equal(got, saveAfter) {
		t.Fatal("churned index's canonical bytes differ from the unchurned reference")
	}
	grown := append(append([]float32{}, base...), adds...)
	loaded, err := Load(bytes.NewReader(saveAfter), grown, dim)
	if err != nil {
		t.Fatal(err)
	}
	if got := saveBytes(t, loaded); !bytes.Equal(got, saveAfter) {
		t.Fatal("save/load round trip is not a fixpoint")
	}
	if got := loaded.Stats(); got.LiveItems != st.LiveItems || got.Tombstones != st.Tombstones {
		t.Fatalf("round trip lost lifecycle state: live=%d tombstones=%d", got.LiveItems, got.Tombstones)
	}
}

// TestLifecycleFilterAndTagMask pins the filtered-search contract: the
// gather loop drops non-matching items before evaluation (they show up
// in Filtered, never in Candidates), and an unbudgeted filtered search
// is exact over the matching subset.
func TestLifecycleFilterAndTagMask(t *testing.T) {
	const dim, n = 6, 120
	vecs := gaussBlock(n, dim, 91)
	ix, err := Build(vecs, dim, WithSeed(92))
	if err != nil {
		t.Fatal(err)
	}
	meta := make([]uint64, n)
	for i := range meta {
		meta[i] = 1 << uint(i%4)
	}
	if err := ix.SetMetadata(meta); err != nil {
		t.Fatal(err)
	}
	q := gaussBlock(1, dim, 93)
	const mask = uint64(0b0100) // items with i%4 == 2
	nbrs, st, err := ix.SearchWithStats(q, 10, WithTagMask(mask))
	if err != nil {
		t.Fatal(err)
	}
	if st.Filtered == 0 {
		t.Fatal("tag mask filtered nothing")
	}
	for _, nb := range nbrs {
		if nb.ID%4 != 2 {
			t.Fatalf("id %d leaked through mask %b", nb.ID, mask)
		}
	}
	// The same subset via WithFilter must give identical results.
	viaFilter, st2, err := ix.SearchWithStats(q, 10, WithFilter(func(id int, m uint64) bool {
		return m&mask != 0
	}))
	if err != nil {
		t.Fatal(err)
	}
	sameNeighbors(t, "tag mask vs predicate", viaFilter, nbrs)
	if st2.Filtered != st.Filtered || st2.Candidates != st.Candidates {
		t.Fatalf("mask and predicate did different work: %+v vs %+v", st, st2)
	}
	// Filtered items never cost a distance computation.
	if st.Candidates != len(pickTagged(n, 2)) {
		t.Fatalf("candidates = %d, matching subset has %d items", st.Candidates, len(pickTagged(n, 2)))
	}
	// Deleting a matching item removes it from filtered results too.
	victim := nbrs[0].ID
	if err := ix.Delete(victim); err != nil {
		t.Fatal(err)
	}
	after, err := ix.Search(q, 10, WithTagMask(mask))
	if err != nil {
		t.Fatal(err)
	}
	for _, nb := range after {
		if nb.ID == victim {
			t.Fatalf("deleted id %d returned from filtered search", victim)
		}
	}
}

func pickTagged(n, residue int) []int {
	var out []int
	for i := 0; i < n; i++ {
		if i%4 == residue {
			out = append(out, i)
		}
	}
	return out
}
