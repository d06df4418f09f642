package quantization

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"gqr/internal/cluster"
	"gqr/internal/dataset"
	"gqr/internal/hash"
)

// TestTrainedQuantizerGolden pins the bits of everything trained or
// encoded through Lloyd k-means, so a change to the nearest-centroid
// search (its order of operations, its tie rule, its memory layout) that
// moves any trained parameter, any code or any ADC table entry fails
// here: the serving re-ranker (plain PQ at subspace widths 2, 3, 4, 8
// and 16, K a multiple of four or not, and OPQ; their marshaled bytes,
// EncodeAll codes and ADC tables), the §6.5 PQ,
// cluster.KMeansP at one and two workers, and a KMH hasher. The
// digests are sha256 over little-endian bytes; they hold on amd64 with
// or without AVX2.
func TestTrainedQuantizerGolden(t *testing.T) {
	ds := dataset.Generate(dataset.GeneratorSpec{Name: "golden", N: 1000, Dim: 128, Clusters: 8, Seed: 47})
	ds.SampleQueries(3, 48)
	n := ds.N()
	// cols copies columns [0, w) of the first rows of the corpus into a
	// row-major block.
	cols := func(rows, w int) []float32 {
		out := make([]float32, rows*w)
		for i := 0; i < rows; i++ {
			copy(out[i*w:(i+1)*w], ds.Vector(i)[:w])
		}
		return out
	}
	reranker := func(data []float32, d, m, k int, opq bool) []byte {
		rr, err := TrainReranker(data, n, d, m, k, opq, 5, 2)
		if err != nil {
			t.Fatal(err)
		}
		out := append(rr.Marshal(), rr.EncodeAll(data, n, 2)...)
		rot := make([]float32, d)
		for qi := 0; qi < ds.NQ(); qi++ {
			out = appendF32s(out, rr.ADCTable(ds.Query(qi)[:d], nil, rot))
		}
		return out
	}
	kmeans := func(procs int) []byte {
		data := cols(n, 8)
		c, err := cluster.KMeansP(data, n, 8, 64, 25, rand.New(rand.NewSource(9)), procs)
		if err != nil {
			t.Fatal(err)
		}
		return appendF32s(nil, c)
	}
	cases := []struct {
		name string
		got  func() []byte
		want string
	}{
		{"reranker pq m16 k256", func() []byte { return reranker(ds.Vectors, 128, 16, 256, false) }, "fa7769a624257acde1d7894785d4dbc9d940d0fa0e43299125f2f1819d8d2dfe"},
		{"reranker pq m16 k16", func() []byte { return reranker(cols(n, 32), 32, 16, 16, false) }, "c3a22e01755667a1715ddb1b61b098121dc0467c2f2b6d719dfbd515ca8d8b2c"},
		{"reranker opq m8 k64", func() []byte { return reranker(cols(n, 32), 32, 8, 64, true) }, "1d52a974ca404c588063652b077bd560c3b9f01ad1e7270b65fc1b1b120bcbc1"},
		// Widths 4 and 3 in one quantizer and K = 30, so every row of the
		// flat table ends in a two-centroid group that must not spill into
		// the next row.
		{"reranker pq d30 m8 k30", func() []byte { return reranker(cols(n, 30), 30, 8, 30, false) }, "3b6298249476d8e4d718107d0915132f5011174a69863971cfdb64b966fb4105"},
		// WithReranking's default m 8 on 128 dimensions: width 16.
		{"reranker pq m8 k256", func() []byte { return reranker(ds.Vectors, 128, 8, 256, false) }, "7d68f63a116950437c66dbf7549bb95cb2325520523f91138c9008222a1652fd"},
		{"pq m16 k16", func() []byte {
			data := cols(n, 32)
			pq, err := TrainPQ(data, n, 32, 16, 16, 10, 3)
			if err != nil {
				t.Fatal(err)
			}
			var out []byte
			code := make([]uint16, 0, 16)
			for i := 0; i < n; i++ {
				for _, c := range pq.Encode(data[i*32:(i+1)*32], code[:0]) {
					out = binary.LittleEndian.AppendUint16(out, c)
				}
			}
			for _, row := range pq.ADCTable(ds.Query(0)[:32]) {
				for _, v := range row {
					out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
				}
			}
			return out
		}, "b44771b873dde5daee2d504d8596ac791c6ea47a5e7932ba826f52261e204b88"},
		{"kmeans procs 1", func() []byte { return kmeans(1) }, "f3a1b0261e0b037af76b547eed8a43f147702322854402d0dbd527452ece2e86"},
		{"kmeans procs 2", func() []byte { return kmeans(2) }, "f3a1b0261e0b037af76b547eed8a43f147702322854402d0dbd527452ece2e86"},
		{"kmh", func() []byte {
			h, err := hash.KMH{SubspaceBits: 4, Procs: 2}.Train(cols(n, 32), n, 32, 16, 11)
			if err != nil {
				t.Fatal(err)
			}
			b, err := hash.Marshal(h)
			if err != nil {
				t.Fatal(err)
			}
			return b
		}, "9c2ff4d1d4ea36a5e04b471fc03c9d4cd897975e1ae74d4bf0f43540e6ea0cd9"},
	}
	for _, c := range cases {
		sum := sha256.Sum256(c.got())
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s: digest %s, golden %s", c.name, got, c.want)
		}
	}
}

func appendF32s(dst []byte, v []float32) []byte {
	for _, x := range v {
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(x))
	}
	return dst
}
