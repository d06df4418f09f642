package query

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"gqr/internal/dataset"
	"gqr/internal/hash"
	"gqr/internal/index"
)

// buildIndex constructs a small ITQ index for sequence tests.
func buildIndex(t testing.TB, n, d, bitsLen, tables int) (*index.Index, *dataset.Dataset) {
	t.Helper()
	ds := dataset.Generate(dataset.GeneratorSpec{
		Name: "q", N: n, Dim: d, Clusters: 5, LatentDim: d / 4, Seed: 41,
	})
	ds.SampleQueries(20, 42)
	ix, err := index.Build(hash.ITQ{Iterations: 8}, ds.Vectors, ds.N(), ds.Dim, bitsLen, tables, 43)
	if err != nil {
		t.Fatal(err)
	}
	return ix, ds
}

// qdOf computes the quantization distance between a query's costs/code
// and a bucket code, straight from Definition 1.
func qdOf(qcode, bucket uint64, costs []float64) float64 {
	var qd float64
	diff := qcode ^ bucket
	for diff != 0 {
		b := bits.TrailingZeros64(diff)
		qd += costs[b]
		diff &= diff - 1
	}
	return qd
}

func TestGQREmitsEveryCodeExactlyOnce(t *testing.T) {
	// Property 1 / requirement (R1): over a full run, GQR generates
	// each of the 2^m buckets exactly once.
	ix, ds := buildIndex(t, 300, 12, 8, 1)
	g := NewGQR(ix)
	for qi := 0; qi < 5; qi++ {
		seq := NewSequence(g, ix, 0, ds.Query(qi))
		seen := make(map[uint64]bool)
		for {
			code, _, ok := seq.Next()
			if !ok {
				break
			}
			if seen[code] {
				t.Fatalf("query %d: code %b emitted twice", qi, code)
			}
			seen[code] = true
		}
		if len(seen) != 1<<8 {
			t.Fatalf("query %d: %d codes emitted, want %d", qi, len(seen), 1<<8)
		}
	}
}

func TestGQRScoresAreTrueQDsAndNonDecreasing(t *testing.T) {
	// Requirement (R2): the i-th emission has the i-th smallest QD, so
	// scores are the true QD of the emitted bucket and non-decreasing.
	ix, ds := buildIndex(t, 300, 12, 10, 1)
	g := NewGQR(ix)
	hasher := ix.Tables[0].Hasher
	costs := make([]float64, 10)
	for qi := 0; qi < 5; qi++ {
		q := ds.Query(qi)
		qcode := hasher.QueryProjection(q, costs)
		seq := NewSequence(g, ix, 0, q)
		prev := -1.0
		for {
			code, score, ok := seq.Next()
			if !ok {
				break
			}
			if score < prev-1e-12 {
				t.Fatalf("query %d: score decreased %g -> %g", qi, prev, score)
			}
			prev = score
			if want := qdOf(qcode, code, costs); math.Abs(want-score) > 1e-9 {
				t.Fatalf("query %d: emitted score %g but true QD %g", qi, score, want)
			}
		}
	}
}

func TestGQREquivalentToQR(t *testing.T) {
	// Algorithms 1 and 2 are semantically equivalent: restricted to
	// non-empty buckets, GQR and QR visit the same buckets at the same
	// QDs in the same (non-decreasing) score order. Exact order may
	// differ only within exact QD ties.
	ix, ds := buildIndex(t, 400, 12, 10, 1)
	g := NewGQR(ix)
	qr := NewQR(ix)
	for qi := 0; qi < 10; qi++ {
		q := ds.Query(qi)
		var gqrCodes []uint64
		var gqrScores []float64
		seq := NewSequence(g, ix, 0, q)
		for {
			code, score, ok := seq.Next()
			if !ok {
				break
			}
			if len(ix.Bucket(0, code)) == 0 {
				continue
			}
			gqrCodes = append(gqrCodes, code)
			gqrScores = append(gqrScores, score)
		}
		qrSeq := NewSequence(qr, ix, 0, q)
		i := 0
		for {
			code, score, ok := qrSeq.Next()
			if !ok {
				break
			}
			if i >= len(gqrCodes) {
				t.Fatalf("query %d: QR emitted more buckets than GQR", qi)
			}
			if math.Abs(score-gqrScores[i]) > 1e-9 {
				t.Fatalf("query %d pos %d: QR score %g != GQR score %g", qi, i, score, gqrScores[i])
			}
			if code != gqrCodes[i] && math.Abs(score-gqrScores[i]) > 1e-9 {
				t.Fatalf("query %d pos %d: different buckets at different scores", qi, i)
			}
			i++
		}
		if i != len(gqrCodes) {
			t.Fatalf("query %d: GQR emitted %d non-empty buckets, QR %d", qi, len(gqrCodes), i)
		}
	}
}

func TestGQRSharedTreeIdentical(t *testing.T) {
	// The §5.3 shared-generation-tree optimization must not change the
	// heap form's emission sequence at all.
	ix, ds := buildIndex(t, 300, 12, 10, 1)
	plain := NewGQRHeap(ix)
	shared := NewGQRSharedTree(ix)
	for qi := 0; qi < 5; qi++ {
		a := NewSequence(plain, ix, 0, ds.Query(qi))
		b := NewSequence(shared, ix, 0, ds.Query(qi))
		for {
			ca, sa, oka := a.Next()
			cb, sb, okb := b.Next()
			if oka != okb {
				t.Fatalf("query %d: sequences end at different points", qi)
			}
			if !oka {
				break
			}
			if ca != cb || sa != sb {
				t.Fatalf("query %d: shared tree diverged: (%b,%g) vs (%b,%g)", qi, ca, sa, cb, sb)
			}
		}
	}
}

func TestGenTreeMatchesBitOps(t *testing.T) {
	tree := newGenTree(8)
	for mask := uint64(1); mask < 1<<8; mask++ {
		j := bits.Len64(mask) - 1
		var wantAp, wantSw uint64
		if j+1 < 8 {
			hi := uint64(1) << uint(j+1)
			wantAp = mask | hi
			wantSw = (mask &^ (1 << uint(j))) | hi
		}
		ap, sw := tree.children(mask)
		if ap != wantAp || sw != wantSw {
			t.Fatalf("mask %b: children (%b,%b) want (%b,%b)", mask, ap, sw, wantAp, wantSw)
		}
	}
}

func TestGHREmitsEveryCodeInHammingOrder(t *testing.T) {
	ix, ds := buildIndex(t, 200, 12, 8, 1)
	g := NewGHR(ix)
	hasher := ix.Tables[0].Hasher
	for qi := 0; qi < 5; qi++ {
		q := ds.Query(qi)
		qcode := hasher.Code(q)
		seq := NewSequence(g, ix, 0, q)
		seen := make(map[uint64]bool)
		prev := -1
		for {
			code, score, ok := seq.Next()
			if !ok {
				break
			}
			d := bits.OnesCount64(code ^ qcode)
			if float64(d) != score {
				t.Fatalf("score %g != Hamming distance %d", score, d)
			}
			if d < prev {
				t.Fatalf("Hamming distance decreased %d -> %d", prev, d)
			}
			prev = d
			if seen[code] {
				t.Fatalf("code %b emitted twice", code)
			}
			seen[code] = true
		}
		if len(seen) != 1<<8 {
			t.Fatalf("%d codes emitted, want 256", len(seen))
		}
	}
}

func TestHREmitsExistingBucketsInHammingOrder(t *testing.T) {
	ix, ds := buildIndex(t, 300, 12, 8, 1)
	h := NewHR(ix)
	hasher := ix.Tables[0].Hasher
	for qi := 0; qi < 5; qi++ {
		q := ds.Query(qi)
		qcode := hasher.Code(q)
		seq := NewSequence(h, ix, 0, q)
		count := 0
		prev := -1
		for {
			code, score, ok := seq.Next()
			if !ok {
				break
			}
			if len(ix.Bucket(0, code)) == 0 {
				t.Fatalf("HR emitted empty bucket %b", code)
			}
			d := bits.OnesCount64(code ^ qcode)
			if float64(d) != score || d < prev {
				t.Fatalf("HR order broken: d=%d prev=%d score=%g", d, prev, score)
			}
			prev = d
			count++
		}
		if count != ix.BucketCount(0) {
			t.Fatalf("HR emitted %d buckets, table has %d", count, ix.BucketCount(0))
		}
	}
}

func TestQREmitsExistingBucketsInQDOrder(t *testing.T) {
	ix, ds := buildIndex(t, 300, 12, 8, 1)
	qr := NewQR(ix)
	hasher := ix.Tables[0].Hasher
	costs := make([]float64, 8)
	for qi := 0; qi < 5; qi++ {
		q := ds.Query(qi)
		qcode := hasher.QueryProjection(q, costs)
		seq := NewSequence(qr, ix, 0, q)
		count := 0
		prev := -1.0
		for {
			code, score, ok := seq.Next()
			if !ok {
				break
			}
			if want := qdOf(qcode, code, costs); math.Abs(want-score) > 1e-9 {
				t.Fatalf("QR score %g != QD %g", score, want)
			}
			if score < prev-1e-12 {
				t.Fatalf("QR scores decreased")
			}
			prev = score
			count++
		}
		if count != ix.BucketCount(0) {
			t.Fatalf("QR emitted %d buckets, table has %d", count, ix.BucketCount(0))
		}
	}
}

func TestMIHMatchesHR(t *testing.T) {
	// MIH must emit exactly the existing buckets, grouped by the same
	// Hamming distances as HR (the substring trick changes how buckets
	// are found, not which).
	ix, ds := buildIndex(t, 400, 12, 12, 1)
	mih := NewMIH(ix, 3)
	hr := NewHR(ix)
	for qi := 0; qi < 8; qi++ {
		q := ds.Query(qi)
		collect := func(m Method) map[float64][]uint64 {
			groups := make(map[float64][]uint64)
			seq := NewSequence(m, ix, 0, q)
			for {
				code, score, ok := seq.Next()
				if !ok {
					break
				}
				groups[score] = append(groups[score], code)
			}
			return groups
		}
		gm, gh := collect(mih), collect(hr)
		if len(gm) != len(gh) {
			t.Fatalf("query %d: MIH has %d distance groups, HR %d", qi, len(gm), len(gh))
		}
		for d, hrCodes := range gh {
			mihCodes := gm[d]
			if len(mihCodes) != len(hrCodes) {
				t.Fatalf("query %d distance %g: MIH %d codes, HR %d", qi, d, len(mihCodes), len(hrCodes))
			}
			inHR := make(map[uint64]bool, len(hrCodes))
			for _, c := range hrCodes {
				inHR[c] = true
			}
			for _, c := range mihCodes {
				if !inHR[c] {
					t.Fatalf("query %d: MIH emitted %b at distance %g, HR did not", qi, c, d)
				}
			}
		}
	}
}

func TestMIHDefaultBlocks(t *testing.T) {
	ix, _ := buildIndex(t, 100, 12, 10, 1)
	mih := NewMIH(ix, 0)
	if mih.blocks < 2 {
		t.Fatalf("default blocks = %d", mih.blocks)
	}
	total := 0
	for _, l := range mih.layout {
		total += l[1]
	}
	if total != 10 {
		t.Fatalf("block widths sum to %d, want 10", total)
	}
}

func TestNewMethodRegistry(t *testing.T) {
	ix, _ := buildIndex(t, 100, 12, 8, 1)
	for _, name := range Methods() {
		m, err := NewMethod(name, ix)
		if err != nil {
			t.Fatal(err)
		}
		if m.Name() != name {
			t.Fatalf("method name %q != %q", m.Name(), name)
		}
	}
	if _, err := NewMethod("nope", ix); err == nil {
		t.Fatal("NewMethod must reject unknown names")
	}
}

func TestGQRWorksWithAllLearners(t *testing.T) {
	// Generality claim (§6.4): GQR must run on every learner,
	// including the non-linear SH and the Voronoi-cell KMH.
	ds := dataset.Generate(dataset.GeneratorSpec{
		Name: "gen", N: 400, Dim: 16, Clusters: 4, LatentDim: 4, Seed: 51,
	})
	ds.SampleQueries(5, 52)
	for _, l := range []hash.Learner{hash.LSH{}, hash.PCAH{}, hash.ITQ{Iterations: 5}, hash.SH{}, hash.KMH{SubspaceBits: 4, Iterations: 5}} {
		ix, err := index.Build(l, ds.Vectors, ds.N(), ds.Dim, 8, 1, 53)
		if err != nil {
			t.Fatalf("%s: %v", l.Name(), err)
		}
		g := NewGQR(ix)
		seq := NewSequence(g, ix, 0, ds.Query(0))
		seen := make(map[uint64]bool)
		prev := -1.0
		for {
			code, score, ok := seq.Next()
			if !ok {
				break
			}
			if seen[code] || score < prev-1e-12 {
				t.Fatalf("%s: GQR order/uniqueness broken", l.Name())
			}
			seen[code] = true
			prev = score
		}
		if len(seen) != 256 {
			t.Fatalf("%s: %d codes", l.Name(), len(seen))
		}
	}
}

func TestFig2BucketCountsShape(t *testing.T) {
	// Figure 2's point: the number of possible buckets at Hamming
	// distance r is C(m,r), which explodes for moderate r. Verify via
	// GHR group sizes.
	ix, ds := buildIndex(t, 100, 16, 12, 1)
	g := NewGHR(ix)
	seq := NewSequence(g, ix, 0, ds.Query(0))
	groups := make(map[int]int)
	for {
		_, score, ok := seq.Next()
		if !ok {
			break
		}
		groups[int(score)]++
	}
	for r := 0; r <= 12; r++ {
		if groups[r] != binomial(12, r) {
			t.Fatalf("radius %d: %d buckets, want C(12,%d)=%d", r, groups[r], r, binomial(12, r))
		}
	}
}

var benchSink uint64

// BenchmarkGQRGenerateBucket times bucket generation alone, one op per
// emitted bucket (Start amortised over depth emissions), for the serving
// generator and the heap comparator side by side: the code lengths span
// the short-code regime, the long-code benchmark workload and the two
// word-filling lengths; depth 100 is a light query, 10 000 the long-code
// regime in which the heap's frontier no longer fits L1.
func BenchmarkGQRGenerateBucket(b *testing.B) {
	for _, m := range []int{14, 20, 32, 64} {
		rng := rand.New(rand.NewSource(int64(m)))
		costs := make([]float64, m)
		for i := range costs {
			costs[i] = math.Abs(rng.NormFloat64())
		}
		ix := stubIndex(m, uint64(rng.Int63())&(1<<uint(m)-1), costs)
		for _, depth := range []int{100, 10000} {
			for _, method := range []Method{NewGQR(ix), NewGQRHeap(ix)} {
				b.Run(fmt.Sprintf("m%d/depth%d/%s", m, depth, method.Name()), func(b *testing.B) {
					code, costs := project(true, ix.Tables[0].Hasher, nil, nil)
					seq := method.Start(0, code, costs, nil)
					b.ResetTimer()
					for i, left := 0, depth; i < b.N; i++ {
						code, _, ok := seq.Next()
						benchSink ^= code
						if left--; left == 0 || !ok {
							seq, left = method.Start(0, code, costs, seq), depth
						}
					}
				})
			}
		}
	}
}

func BenchmarkGHRGenerateBucket(b *testing.B) {
	ix, ds := buildIndex(b, 2000, 16, 14, 1)
	g := NewGHR(ix)
	q := ds.Query(0)
	b.ResetTimer()
	seq := NewSequence(g, ix, 0, q)
	for i := 0; i < b.N; i++ {
		code, _, ok := seq.Next()
		if !ok {
			seq = NewSequence(g, ix, 0, q)
			continue
		}
		benchSink ^= code
	}
}

func TestGQRNaiveEquivalentToGQR(t *testing.T) {
	// The abl-heap naive-frontier variant must emit exactly the same
	// (bucket, score) sequence as the serving GQR.
	ix, ds := buildIndex(t, 300, 12, 10, 1)
	heap := NewGQR(ix)
	naive := NewGQRNaive(ix)
	if naive.Name() != "gqr-naive" || !naive.QDScores() {
		t.Fatal("naive variant misdeclares itself")
	}
	for qi := 0; qi < 5; qi++ {
		a := NewSequence(heap, ix, 0, ds.Query(qi))
		b := NewSequence(naive, ix, 0, ds.Query(qi))
		for {
			ca, sa, oka := a.Next()
			cb, sb, okb := b.Next()
			if oka != okb {
				t.Fatalf("query %d: sequences end at different points", qi)
			}
			if !oka {
				break
			}
			if sa != sb {
				t.Fatalf("query %d: naive score %g != heap score %g", qi, sb, sa)
			}
			if ca != cb && sa != sb {
				t.Fatalf("query %d: divergent buckets at distinct scores", qi)
			}
		}
	}
}

func TestMethodIntrospection(t *testing.T) {
	ix, _ := buildIndex(t, 100, 12, 8, 1)
	cases := map[string]bool{"hr": false, "ghr": false, "qr": true, "gqr": true, "mih": false}
	for name, wantQD := range cases {
		m, err := NewMethod(name, ix)
		if err != nil {
			t.Fatal(err)
		}
		if m.QDScores() != wantQD {
			t.Fatalf("%s: QDScores = %v, want %v", name, m.QDScores(), wantQD)
		}
	}
	s := NewSearcher(ix, NewGQR(ix))
	if s.Method().Name() != "gqr" {
		t.Fatal("Searcher.Method broken")
	}
	shared := NewGQRSharedTree(ix)
	if shared.Name() != "gqr-shared" {
		t.Fatalf("shared tree name %q", shared.Name())
	}
}
