package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"gqr"
	"gqr/internal/dataset"
)

// TestSearchEndpointUnbudgetedLongCodes: /search without maxCandidates
// is an unbudgeted search, which on a 40-bit index used to enumerate
// codes until the process was killed — one request, no credentials. It
// must answer exactly, at the cost of the items it holds, and the flight
// record must say how large the generator's frontier grew.
func TestSearchEndpointUnbudgetedLongCodes(t *testing.T) {
	ds := dataset.Generate(dataset.GeneratorSpec{
		Name: "srv-long", N: 600, Dim: 12, Clusters: 4, LatentDim: 3, Seed: 85,
	})
	ds.SampleQueries(4, 86)
	ds.ComputeGroundTruth(5)
	for _, bits := range []int{24, 40} {
		ix, err := gqr.Build(ds.Vectors, ds.Dim, gqr.WithAlgorithm(gqr.LSH), gqr.WithCodeLength(bits), gqr.WithSeed(87), gqr.WithTracing(1))
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(New(ix))
		for qi := 0; qi < ds.NQ(); qi++ {
			var out SearchResponse
			resp := post(t, srv.URL+"/search", SearchRequest{Query: ds.Query(qi), K: 5, IncludeStats: true}, &out)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%d bits: status %d", bits, resp.StatusCode)
			}
			if len(out.Neighbors) != 5 {
				t.Fatalf("%d bits query %d: %d neighbors", bits, qi, len(out.Neighbors))
			}
			for i, id := range ds.GroundTruth[qi] {
				if out.Neighbors[i].ID != int(id) {
					t.Fatalf("%d bits query %d: %v != ground truth %v", bits, qi, out.Neighbors, ds.GroundTruth[qi])
				}
			}
			if st := out.Stats; st.BucketsGenerated > ds.N()+1 || st.Candidates != ds.N() {
				t.Fatalf("%d bits query %d: %d buckets generated and %d candidates over %d items", bits, qi, st.BucketsGenerated, st.Candidates, ds.N())
			}
		}
		_, body := get(t, srv.URL+"/debug/querytrace")
		var list QueryTraceList
		if err := json.Unmarshal(body, &list); err != nil {
			t.Fatalf("list decode: %v", err)
		}
		if len(list.Traces) != ds.NQ() {
			t.Fatalf("%d bits: %d traces listed, want %d", bits, len(list.Traces), ds.NQ())
		}
		for _, tr := range list.Traces {
			probe := tr.Stages["probe"].Work
			if probe.Frontier < int32(ds.N())/2 || int(probe.Frontier) > tr.Totals.BucketsGenerated+1 {
				t.Fatalf("%d bits: flight record shows a frontier of %d nodes after %d buckets", bits, probe.Frontier, tr.Totals.BucketsGenerated)
			}
		}
		srv.Close()
	}
}
