package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"gqr"
)

// sameVector reports whether two decoded vectors are the same to the
// bit, nil-versus-empty included.
func sameVector(a, b []float32) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// checkDecoded holds one codec decode to encoding/json's decode of the
// same bytes: the same success or failure, the same error text, the
// same struct (what encoding/json leaves behind on failure included)
// and the same vector bits.
func checkDecoded(t *testing.T, kind string, b []byte, got, want any, gotErr, wantErr error, gotVecs, wantVecs [][]float32) {
	t.Helper()
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%s %q: codec error %v, encoding/json error %v", kind, b, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s %q: codec decoded %+v, encoding/json %+v", kind, b, got, want)
	}
	if (gotVecs == nil) != (wantVecs == nil) || len(gotVecs) != len(wantVecs) {
		t.Fatalf("%s %q: codec decoded %d vectors (nil %v), encoding/json %d (nil %v)",
			kind, b, len(gotVecs), gotVecs == nil, len(wantVecs), wantVecs == nil)
	}
	for i := range gotVecs {
		if !sameVector(gotVecs[i], wantVecs[i]) {
			t.Fatalf("%s %q: vector %d: codec %v, encoding/json %v", kind, b, i, gotVecs[i], wantVecs[i])
		}
	}
}

// checkDecode runs b through all four request decoders and through
// encoding/json, and compares.
func checkDecode(t *testing.T, b []byte) {
	t.Helper()
	const dim = 4
	std := func(v any) error { return json.NewDecoder(bytes.NewReader(b)).Decode(v) }
	{
		var got, want SearchRequest
		gotErr, wantErr := decodeSearch(b, &got, dim), std(&want)
		checkDecoded(t, "search", b, got, want, gotErr, wantErr, [][]float32{got.Query}, [][]float32{want.Query})
	}
	{
		var got, want BatchRequest
		flat, gotErr := decodeBatch(b, &got, dim)
		wantErr := std(&want)
		checkDecoded(t, "batch", b, got, want, gotErr, wantErr, got.Queries, want.Queries)
		// The promise the handler searches flat in place on.
		off := 0
		for i, q := range got.Queries {
			if flat == nil {
				break
			}
			if off+len(q) > len(flat) || (len(q) > 0 && &q[0] != &flat[off]) {
				t.Fatalf("batch %q: query %d is not flat[%d:%d]", b, i, off, off+len(q))
			}
			off += len(q)
		}
		if flat != nil && off != len(flat) {
			t.Fatalf("batch %q: flat holds %d components, the queries %d", b, len(flat), off)
		}
	}
	{
		var got, want AddRequest
		gotErr, wantErr := decodeAdd(b, &got, dim), std(&want)
		checkDecoded(t, "add", b, got, want, gotErr, wantErr, [][]float32{got.Vector}, [][]float32{want.Vector})
	}
	{
		var got, want UpdateRequest
		gotErr, wantErr := decodeUpdate(b, &got, dim), std(&want)
		checkDecoded(t, "update", b, got, want, gotErr, wantErr, [][]float32{got.Vector}, [][]float32{want.Vector})
	}
}

// decodeCorpus is the golden test's request bodies plus the shapes at
// the edges of what the scanner takes for itself.
func decodeCorpus() []string {
	bodies := []string{
		`{}`, ` { } `, `{"query":[]}`, `{"queries":[[]]}`, `{"queries":[[],[1],[]],"k":1}`, `{"vector":[ ]}`,
		`{"query":[-0,0,-0.0,1e-50,3.4028235e38,3.4028236e38,1.17549435e-38,1e-45]}`,
		`{"query":[0.1,0.2,0.30000001,16777217,123456789012345678901234567890]}`,
		`{"query":[1,2,3,4],"k":-0}`, `{"k":9223372036854775807}`, `{"k":9223372036854775808}`, `{"k":-9223372036854775808}`,
		`{"tagMask":18446744073709551615,"meta":18446744073709551615}`, `{"tagMask":18446744073709551616}`,
		`{"radius":1e400}`, `{"radius":-1.5e-3,"earlyStop":false,"includeStats":true}`, `{"earlyStop":1}`, `{"earlyStop":tru}`,
		`{"k":1e2}`, `{"k":1.0}`, `{"k":+1}`, `{"k":.5}`, `{"k":1.}`, `{"k":0x10}`, `{"k":Infinity}`, `{"k":"1"}`, `{"k":null}`,
		`{"query":[1,2,,3]}`, `{"query":[1 2]}`, `{"query":[1,2]`, `{"query":[1,2]]`, `{"query":[[1]]}`, `{"queries":[[1],2]}`,
		`{"queries":[[1,2,3,4,5,6,7,8,9],[1,2,3,4]],"k":1}`, `{"queries":[[1,2,3,4],[1,2,3,4,5,6,7,8,9,10,11,12]],"k":1}`,
		`{"Query":[1],"K":2}`, `{"QUERY":[1]}`, `{"k":1,"k":2}`, `{"vector":[1],"vector":[2]}`, `{"vector":[1],"meta":1,"meta":2}`,
		`{"k\"":1}`, `{"k":1,}`, `{,"k":1}`, `{"k" 1}`, `{"k":1 "x":2}`, `{"k":1}}`, `{"k":1}{"k":2}`, `{"k":1}x`,
		`null`, `true`, `1`, `"x"`, `[]`, ` `, `{`, `}`, `{"`, `{"k`, `{"k"`, `{"k":`, `{"k":-`, `{"k":1e`, `{"k":1e+`,
		"\ufeff{\"k\":1}", "{\"k\":1\x00}", "{\"\xff\":1}", `{"query":[1,2,3,4],"k":1,"extra":{"a":[1,{"b":null}]}}`,
		`{"vector":[1,2,3,4],"meta":7,"k":1}`, `{"query":[1e19,-1E+19,0e0,0E-0]}`,
	}
	for _, c := range goldenCases {
		bodies = append(bodies, c.body)
	}
	return bodies
}

func TestDecodeMatchesEncodingJSON(t *testing.T) {
	for _, body := range decodeCorpus() {
		checkDecode(t, []byte(body))
	}
	// A batch past the bound is left to encoding/json whole.
	big := `{"queries":[` + strings.Repeat(`[1],`, maxBatchQueries) + `[1]],"k":1}`
	checkDecode(t, []byte(big))
	var req BatchRequest
	if flat, err := decodeBatch([]byte(big), &req, 1); err != nil || flat != nil || len(req.Queries) != maxBatchQueries+1 {
		t.Fatalf("oversized batch: flat %v, %d queries, err %v", flat != nil, len(req.Queries), err)
	}
}

// TestScannerTakesThePlainShape: the differential test passes just as
// well if the scanner declines everything, so pin that it does not.
func TestScannerTakesThePlainShape(t *testing.T) {
	var s SearchRequest
	sc := scanner{b: []byte(`{"query":[1,2,3,4],"k":10,"maxCandidates":200}`)}
	var p searchParams
	if !sc.object(func(key []byte) (ok bool) {
		if string(key) == "query" {
			s.Query, ok = sc.floats(nil)
			return ok
		}
		return sc.param(key, &p)
	}) || len(s.Query) != 4 || p.k != 10 || p.maxCand != 200 {
		t.Fatalf("scanner declined the plain /search shape: %+v %+v", s, p)
	}
	var b BatchRequest
	if flat, err := decodeBatch([]byte(`{"queries":[[1,2],[3,4]],"k":3}`), &b, 2); err != nil || len(flat) != 4 {
		t.Fatalf("scanner declined the plain /batch shape: flat %v err %v", flat, err)
	}
	var vec []float32
	var meta uint64
	if !scanVector([]byte(`{"vector":[1,2],"meta":3}`), &vec, &meta, 2) || len(vec) != 2 || meta != 3 {
		t.Fatal("scanner declined the plain /add shape")
	}
	if scanVector([]byte(`{"vector":[1,2],"meta":3}`), &vec, nil, 2) {
		t.Fatal("scanner took \"meta\" for a PUT body, whose type has no such field")
	}
}

// FuzzDecodeRequest: on arbitrary bytes, scanner-or-fallback is
// encoding/json — for all four request types.
func FuzzDecodeRequest(f *testing.F) {
	for _, body := range decodeCorpus() {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, b []byte) { checkDecode(t, b) })
}

func neighborsJSON(nbrs []gqr.Neighbor) []NeighborJSON {
	out := make([]NeighborJSON, len(nbrs))
	for i, nb := range nbrs {
		out[i] = NeighborJSON{ID: nb.ID, Distance: nb.Distance}
	}
	return out
}

// TestAppendNeighborsMatchesEncodingJSON holds the response encoder to
// json.Marshal of the exported response type, byte for byte, over the
// distances at every branch of encoding/json's float formatting.
func TestAppendNeighborsMatchesEncodingJSON(t *testing.T) {
	edges := []float64{
		0, math.Copysign(0, -1), 1, 3, 0.5, 4.6097722286464435,
		5e-324, 2.2250738585072014e-308, 1e-310, // subnormal and smallest normal
		1e-6, 9.999999999999999e-7, 1e-7, 1.5e-9, 4.76837158203125e-7, 1e-10, 1.25e-100, // 'e' below 1e-6
		1e21, 9.999999999999999e20, 999999999999999900000, 1.0000000150474662e+30, math.MaxFloat64, // 'e' from 1e21
		-1e-7, -1e21, -2.5, 14142135596162904000,
	}
	lists := [][]gqr.Neighbor{nil, {}, {{ID: 0, Distance: 0}}, {{ID: -1, Distance: 1}, {ID: math.MaxInt64, Distance: 2}}}
	var all []gqr.Neighbor
	for i, d := range edges {
		all = append(all, gqr.Neighbor{ID: i, Distance: d})
	}
	lists = append(lists, all)
	rng := rand.New(rand.NewSource(16))
	for i := 0; i < 2000; i++ {
		list := make([]gqr.Neighbor, rng.Intn(12))
		for j := range list {
			d := math.Float64frombits(rng.Uint64())
			switch rng.Intn(4) {
			case 0:
				d = edges[rng.Intn(len(edges))]
			case 1:
				d = math.Sqrt(float64(rng.Float32() * 100)) // what a search returns
			}
			if math.IsNaN(d) || math.IsInf(d, 0) {
				d = 0
			}
			list[j] = gqr.Neighbor{ID: rng.Intn(1 << 20), Distance: d}
		}
		lists = append(lists, list)
	}
	for _, list := range lists {
		want, err := json.Marshal(SearchResponse{Neighbors: neighborsJSON(list)})
		if err != nil {
			t.Fatal(err)
		}
		got, err := appendNeighbors([]byte(`{"neighbors":`), list)
		if err != nil {
			t.Fatalf("%v: %v", list, err)
		}
		if got = append(got, '}'); !bytes.Equal(got, want) {
			t.Fatalf("appendNeighbors wrote\n%s\nencoding/json\n%s", got, want)
		}
	}
	// What has no JSON form is encoding/json's error, not invalid JSON.
	for _, d := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		list := []gqr.Neighbor{{ID: 1, Distance: 1}, {ID: 2, Distance: d}}
		_, wantErr := json.Marshal(SearchResponse{Neighbors: neighborsJSON(list)})
		_, err := appendNeighbors(nil, list)
		if err == nil || wantErr == nil || err.Error() != wantErr.Error() {
			t.Fatalf("distance %v: appendNeighbors error %v, encoding/json error %v", d, err, wantErr)
		}
	}
}

func TestAppendEntryErrorMatchesEncodingJSON(t *testing.T) {
	for _, msg := range []string{"", "query 1 has dim 0, want 4", "<script>&\"\\\n ", "bad \xff utf8"} {
		want, err := json.Marshal(BatchEntry{Error: msg})
		if err != nil {
			t.Fatal(err)
		}
		if got := appendEntryError(nil, msg); !bytes.Equal(got, want) {
			t.Fatalf("appendEntryError(%q) wrote %s, encoding/json %s", msg, got, want)
		}
	}
	if got, want := appendID(nil, -12), "{\"id\":-12}\n"; string(got) != want {
		t.Fatalf("appendID wrote %q, want %q", got, want)
	}
}
