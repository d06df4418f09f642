package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"
	"time"

	"gqr/internal/server"
)

// toy runs every code path of a workload in a fraction of a second; its
// numbers mean nothing.
var toy = sizing{n: 1000, maxCand: 20, queries: 100, truthQueries: 40, writes: 200, mixedOpsPerSecond: 2000, recoveries: 2, windows: 1, minBeyond: 0}

const toyMeasure = 200 * time.Millisecond

// TestSmoke runs every workload both ways at toy scale and holds what it
// emits to BENCHMARK.json: the same workloads, and for each run exactly the
// metrics of its kind, once each, with the unit the file gives and a finite
// value.
func TestSmoke(t *testing.T) {
	spec, err := readSpec("")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Fatalf("workload %d is %q in BENCHMARK.json and %q in the benchmark", i, spec.Workloads[i].Name, w.name)
		}
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(w, toy, 7, toyMeasure, traced, t.TempDir())
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d failed: %s", w.name, traced, res.Failed, res.Attempted, res.FirstFailure)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			var got, named []string
			for name := range res.Metrics {
				got = append(got, name)
			}
			for _, m := range want {
				named = append(named, m.Name)
				if r, ok := res.Metrics[m.Name]; ok && (r.Unit != m.Unit || math.IsNaN(r.Value) || math.IsInf(r.Value, 0)) {
					t.Errorf("%s traced=%v: %s is %v %q, BENCHMARK.json says unit %q", w.name, traced, m.Name, r.Value, r.Unit, m.Unit)
				}
			}
			sort.Strings(got)
			sort.Strings(named)
			if a, b := mustJSON(got), mustJSON(named); a != b {
				t.Errorf("%s traced=%v emits\n%s\nBENCHMARK.json names\n%s", w.name, traced, a, b)
			}
		}
	}
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return string(b)
}

// TestPlantedFaults checks that the benchmark's own validation counts a
// wrong answer and a lost write as failures: a faster but wrong program
// must fail, not win.
func TestPlantedFaults(t *testing.T) {
	w, _ := findWorkload("mixed-durable")
	r := &run{w: w, sz: toy, seed: 3, dir: t.TempDir(), metrics: map[string]metric{}}
	defer r.tearDown()
	if _, err := r.setUp(0); err != nil {
		t.Fatal(err)
	}
	if r.failed != 0 {
		t.Fatalf("clean set-up counts %d failures: %v", r.failed, r.first)
	}

	// One swapped neighbour: a proxy exchanges the ids of the two nearest
	// results of a correct reply.
	proxy := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		rec := httptest.NewRecorder()
		r.srv.Config.Handler.ServeHTTP(rec, req)
		var sr server.SearchResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &sr); err != nil {
			t.Error(err)
		}
		sr.Neighbors[0].ID, sr.Neighbors[1].ID = sr.Neighbors[1].ID, sr.Neighbors[0].ID
		json.NewEncoder(rw).Encode(sr)
	}))
	defer proxy.Close()
	c := newClient(proxy.URL)
	defer c.close()
	var swapped tally
	r.read(c, 0, &swapped)
	if swapped.attempted != 1 || swapped.failed != 1 {
		t.Errorf("swapped neighbour: %d of %d failed, want 1 of 1", swapped.failed, swapped.attempted)
	}

	// One dropped acknowledged add: the model holds a vector that the
	// index was never sent, as if the index had lost it.
	direct := newClient(r.srv.URL)
	defer direct.close()
	rng := rand.New(rand.NewSource(1))
	for _, kind := range []opKind{opAdd, opAdd, opDelete, opUpdate} {
		r.write(direct, kind, rng)
	}
	if _, err := r.recoverDurable(); err != nil {
		t.Fatal(err)
	}
	if r.failed != 0 {
		t.Fatalf("faithful recovery counts %d failures: %v", r.failed, r.first)
	}
	r.model.add(r.extra[:w.dim])
	if _, err := r.recoverDurable(); err != nil {
		t.Fatal(err)
	}
	if r.failed == 0 {
		t.Error("a dropped acknowledged add was not counted as a failure")
	}
}
