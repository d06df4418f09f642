package gqr

import (
	"bytes"
	"math"
	"testing"
)

// FuzzLoad feeds arbitrary bytes to the GQRPUB1 loader. Load consumes
// untrusted files (the durability layer replays base files off disk
// after a crash), so whatever the bytes, it must return an error or a
// consistent index — never panic, never allocate unboundedly from a
// length field, never accept a structure that disagrees with the
// vector block.
func FuzzLoad(f *testing.F) {
	const dim = 4
	vecs := durVecs(30, dim, 30)
	ix, err := Build(vecs, dim, WithSeed(31))
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:9])
	f.Add([]byte("GQRPUB1\x00"))
	f.Add([]byte{})
	// A GQRIDX3 stream too: tombstones plus a metadata slab, so the
	// fuzzer mutates the v3-only blocks (bitmap, dead count, meta flag).
	if err := ix.SetMetadata(make([]uint64, 30)); err != nil {
		f.Fatal(err)
	}
	if _, err := ix.AddWithMeta(vecs[:dim], 0b11); err != nil {
		f.Fatal(err)
	}
	for _, id := range []int{2, 17, 30} {
		if err := ix.Delete(id); err != nil {
			f.Fatal(err)
		}
	}
	grown := append(append([]float32{}, vecs...), vecs[:dim]...)
	buf.Reset()
	if err := ix.Save(&buf); err != nil {
		f.Fatal(err)
	}
	validV3 := buf.Bytes()
	f.Add(validV3)
	f.Add(validV3[:len(validV3)/2])
	f.Add(validV3[:len(validV3)-7])
	// And a GQRIDX4 stream: quantizer blob, rerank factor and the code
	// slab, so the fuzzer mutates the v4-only blocks (blob length, shape
	// header, factor bounds, slab size) too.
	ix4, err := Build(vecs, dim, WithSeed(31), WithReranking(2, 8, 2))
	if err != nil {
		f.Fatal(err)
	}
	if err := ix4.Delete(5); err != nil {
		f.Fatal(err)
	}
	buf.Reset()
	if err := ix4.Save(&buf); err != nil {
		f.Fatal(err)
	}
	validV4 := buf.Bytes()
	f.Add(validV4)
	f.Add(validV4[:len(validV4)/2])
	f.Add(validV4[:len(validV4)-3])
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, block := range [][]float32{vecs, grown} {
			out, err := Load(bytes.NewReader(data), block, dim)
			if err != nil {
				continue
			}
			// Anything that loads must be internally consistent and usable.
			st := out.Stats()
			if st.Items != len(block)/dim {
				t.Fatalf("loaded index claims %d items over a %d-vector block", st.Items, len(block)/dim)
			}
			if st.LiveItems+st.Tombstones != st.Items || st.LiveItems < 0 {
				t.Fatalf("inconsistent lifecycle counts: items=%d live=%d tombstones=%d",
					st.Items, st.LiveItems, st.Tombstones)
			}
			if _, err := out.Search(block[:dim], 3); err != nil {
				t.Fatalf("loaded index cannot search: %v", err)
			}
		}
	})
}

// TestNonFiniteVectorsRejected is the hostile-input neighbour of
// FuzzLoad for the two places a vector enters the index at run time: a
// query and an added (or updated) vector. One NaN or ±Inf component
// poisons every heap comparison it takes part in, so both stop at the
// door — a search fails alone (per query inside a batch), and a write
// fails before the WAL sees it, for both metrics (normalization turns
// ±Inf into NaN, never into a number).
func TestNonFiniteVectorsRejected(t *testing.T) {
	const dim, n = 6, 120
	vecs := durVecs(n, dim, 71)
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	hostile := map[string]float32{"NaN": nan, "+Inf": inf, "-Inf": -inf}
	poisoned := func(at int, v float32) []float32 {
		q := append([]float32{}, vecs[:dim]...)
		q[at] = v
		return q
	}
	for _, metric := range []Metric{Euclidean, Angular} {
		ix, err := Build(vecs, dim, WithSeed(72), WithMetric(metric))
		if err != nil {
			t.Fatal(err)
		}
		if err := ix.EnableDurability(t.TempDir()); err != nil {
			t.Fatal(err)
		}
		before := ix.Stats()
		for name, v := range hostile {
			bad := poisoned(dim-1, v)
			if _, err := ix.Search(bad, 3); err == nil {
				t.Errorf("%s/%s: Search accepted a non-finite query", metric, name)
			}
			// Inside a batch only the poisoned member fails.
			block := append(append(append([]float32{}, vecs[:dim]...), bad...), vecs[dim:2*dim]...)
			res, err := ix.SearchBatchWithStats(block, 3)
			if err != nil {
				t.Fatalf("%s/%s: batch: %v", metric, name, err)
			}
			if res[0].Err != nil || res[1].Err == nil || res[2].Err != nil {
				t.Errorf("%s/%s: batch errors %v / %v / %v, want only the middle query to fail", metric, name, res[0].Err, res[1].Err, res[2].Err)
			}
			if _, err := ix.Add(bad); err == nil {
				t.Errorf("%s/%s: Add accepted a non-finite vector", metric, name)
			}
			if _, err := ix.AddWithMeta(poisoned(0, v), 1); err == nil {
				t.Errorf("%s/%s: AddWithMeta accepted a non-finite vector", metric, name)
			}
			if _, err := ix.Update(0, bad); err == nil {
				t.Errorf("%s/%s: Update accepted a non-finite vector", metric, name)
			}
		}
		// Nothing was applied and nothing reached the log.
		after := ix.Stats()
		if after.Items != before.Items || after.LiveItems != before.LiveItems || after.WALBytes != before.WALBytes {
			t.Errorf("%s: rejected writes left a trace: items %d→%d live %d→%d wal %d→%d", metric,
				before.Items, after.Items, before.LiveItems, after.LiveItems, before.WALBytes, after.WALBytes)
		}
		if err := ix.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
