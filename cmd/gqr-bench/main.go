// Command gqr-bench regenerates the tables and figures of the paper's
// evaluation section (see DESIGN.md for the experiment index and
// EXPERIMENTS.md for recorded results).
//
// Usage:
//
//	gqr-bench -experiment fig7                 # one experiment
//	gqr-bench -experiment all -scale 0.25      # everything, quarter-size corpora
//	gqr-bench -list                            # list experiment ids
//	gqr-bench -json BENCH.json                 # machine-readable micro-benchmarks
//	gqr-bench -trace-out trace.json            # Chrome trace of a traced query run
//	gqr-bench -lifecycle                       # search latency at 0/10/50% deleted
//
// Corpus sizes scale linearly with -scale; -nq and -k control the query
// workload (paper defaults: 1000 queries scaled to 100, k=20).
// -trace-out runs the budget-1000 workload with the flight recorder on
// (-trace-sample / -slow-query-ms tune the capture policies) and writes
// the captured traces as Chrome trace_event JSON for Perfetto.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"
	"strings"
	"time"

	"gqr"
	"gqr/internal/bench"
	"gqr/internal/dataset"
	"gqr/internal/trace"
)

func main() {
	var (
		experiment  = flag.String("experiment", "", "experiment id (e.g. fig7), comma-separated list, or 'all'")
		list        = flag.Bool("list", false, "list available experiments and exit")
		scale       = flag.Float64("scale", 1.0, "corpus scale factor in (0,1]")
		nq          = flag.Int("nq", 100, "number of sampled queries")
		k           = flag.Int("k", 20, "number of target nearest neighbors")
		seed        = flag.Int64("seed", 0, "training seed offset")
		out         = flag.String("o", "", "write output to this file instead of stdout")
		jsonOut     = flag.String("json", "", "run the evaluation-stage micro-benchmarks and write JSON results to this file ('-' for stdout)")
		buildProcs  = flag.Int("build-procs", 0, "index-build worker bound (0 = GOMAXPROCS); indexes are identical at any setting")
		traceOut    = flag.String("trace-out", "", "run a traced query workload and write the flight recorder's captures as Chrome trace_event JSON to this file ('-' for stdout)")
		traceSample = flag.Int("trace-sample", 1, "with -trace-out: capture every n-th query")
		slowQueryMS = flag.Float64("slow-query-ms", 0, "with -trace-out: also capture queries at or above this latency in milliseconds")
		lifecycle   = flag.Bool("lifecycle", false, "run the corpus-lifecycle sweep: budget-1000 latency at 0/10/50% deleted, before and after compaction")
		rerankOut   = flag.String("rerank", "", "run the quantized re-ranking sweep (m x factor grid, recall@k + latency) and write JSON results to this file ('-' for stdout)")
		rerankDim   = flag.Int("rerank-dim", 32, "with -rerank: corpus dimensionality (32 runs the full m x factor grid; other dims run a trimmed evaluation-heavy grid)")
	)
	flag.Parse()

	if *rerankOut != "" {
		if err := runRerankSweep(*rerankOut, *nq, *k, *seed, *buildProcs, *rerankDim); err != nil {
			fatal(err)
		}
		return
	}

	if *lifecycle {
		if err := runLifecycleSweep(os.Stdout, *nq, *k, *seed, *buildProcs); err != nil {
			fatal(err)
		}
		return
	}

	if *traceOut != "" {
		if err := runTraceCapture(*traceOut, *nq, *k, *seed, *buildProcs, *traceSample, *slowQueryMS); err != nil {
			fatal(err)
		}
		return
	}

	if *jsonOut != "" {
		var w io.Writer = os.Stdout
		if *jsonOut != "-" {
			f, err := os.Create(*jsonOut)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			w = f
		}
		if err := bench.RunMicro(w, *buildProcs); err != nil {
			fatal(err)
		}
		return
	}

	if *list {
		for _, e := range bench.Experiments() {
			fmt.Printf("%-14s %s\n", e.ID, e.Title)
		}
		return
	}
	if *experiment == "" {
		fmt.Fprintln(os.Stderr, "gqr-bench: -experiment is required (or -list)")
		flag.Usage()
		os.Exit(2)
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = io.MultiWriter(os.Stdout, f)
	}

	opt := bench.RunOptions{Scale: *scale, NQ: *nq, K: *k, Seed: *seed, BuildProcs: *buildProcs}
	var exps []bench.Experiment
	if *experiment == "all" {
		exps = bench.Experiments()
	} else {
		for _, id := range strings.Split(*experiment, ",") {
			e, err := bench.ByID(strings.TrimSpace(id))
			if err != nil {
				fatal(err)
			}
			exps = append(exps, e)
		}
	}
	for _, e := range exps {
		start := time.Now()
		fmt.Fprintf(w, "\n===== %s: %s =====\n\n", e.ID, e.Title)
		if err := e.Run(opt, w); err != nil {
			fatal(fmt.Errorf("%s: %w", e.ID, err))
		}
		fmt.Fprintf(w, "[%s completed in %s]\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
}

// runTraceCapture builds the micro-benchmark corpus with the flight
// recorder enabled, runs the budget-1000 query workload, and writes
// every captured trace as Chrome trace_event JSON — a self-contained
// way to eyeball the per-stage latency breakdown in Perfetto without
// standing up the HTTP server.
func runTraceCapture(path string, nq, k int, seed int64, buildProcs, sampleEvery int, slowMS float64) error {
	ds := dataset.Generate(dataset.GeneratorSpec{
		Name: "traceout", N: 20000, Dim: 32, Clusters: 16, LatentDim: 8, Seed: 17 + seed,
	})
	if nq < 1 {
		nq = 1
	}
	ds.SampleQueries(nq, 18+seed)
	// The ring must hold the whole workload: every captured query lands
	// in the output file.
	ix, err := gqr.Build(ds.Vectors, ds.Dim,
		gqr.WithSeed(19+seed),
		gqr.WithBuildParallelism(buildProcs),
		gqr.WithTracing(sampleEvery),
		gqr.WithSlowQueryThreshold(time.Duration(slowMS*float64(time.Millisecond))),
		gqr.WithTraceBuffer(nq))
	if err != nil {
		return err
	}
	for qi := 0; qi < nq; qi++ {
		if _, err := ix.Search(ds.Query(qi), k, gqr.WithMaxCandidates(1000)); err != nil {
			return err
		}
	}
	rec := ix.TraceRecorder()
	traces := rec.Traces()
	var w io.Writer = os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if err := trace.WriteChrome(w, traces...); err != nil {
		return err
	}
	st := rec.Stats()
	fmt.Fprintf(os.Stderr, "gqr-bench: traced %d/%d queries, captured %d traces to %s\n",
		st.Traced, st.Queries, len(traces), path)
	return nil
}

// runLifecycleSweep measures how deletions affect query latency: the
// budget-1000 workload runs at 0%, 10% and 50% of the corpus deleted,
// first with the tombstones still pending in the posting lists (each
// dead id costs a bitmap test in the gather loop) and then after
// Compact has purged them (dead ids cost nothing). Deleted ids are a
// seeded permutation, so runs are reproducible.
func runLifecycleSweep(w io.Writer, nq, k int, seed int64, buildProcs int) error {
	const n, dim = 20000, 32
	ds := dataset.Generate(dataset.GeneratorSpec{
		Name: "lifecycle", N: n, Dim: dim, Clusters: 16, LatentDim: 8, Seed: 23 + seed,
	})
	if nq < 1 {
		nq = 1
	}
	ds.SampleQueries(nq, 24+seed)
	ix, err := gqr.Build(ds.Vectors, ds.Dim,
		gqr.WithSeed(25+seed),
		gqr.WithBuildParallelism(buildProcs))
	if err != nil {
		return err
	}
	nLive := ds.N() // SampleQueries holds sampled rows out of the corpus
	perm := rand.New(rand.NewSource(26 + seed)).Perm(nLive)
	fmt.Fprintf(w, "corpus %d x %d, %d queries, k=%d, budget 1000\n\n", nLive, dim, nq, k)
	fmt.Fprintf(w, "%-9s %-11s %9s %9s %10s %10s\n",
		"deleted", "phase", "live", "us/query", "cands/q", "filt/q")
	deleted := 0
	for _, frac := range []float64{0, 0.10, 0.50} {
		target := int(frac * float64(nLive))
		for ; deleted < target; deleted++ {
			if err := ix.Delete(perm[deleted]); err != nil {
				return err
			}
		}
		measure := func(phase string) error {
			var lat time.Duration
			var cands, filt int
			for qi := 0; qi < nq; qi++ {
				start := time.Now()
				_, st, err := ix.SearchWithStats(ds.Query(qi), k, gqr.WithMaxCandidates(1000))
				if err != nil {
					return err
				}
				lat += time.Since(start)
				cands += st.Candidates
				filt += st.Filtered
			}
			fmt.Fprintf(w, "%-9s %-11s %9d %9.1f %10.1f %10.1f\n",
				fmt.Sprintf("%d%%", int(frac*100)), phase, ix.Stats().LiveItems,
				float64(lat.Microseconds())/float64(nq),
				float64(cands)/float64(nq), float64(filt)/float64(nq))
			return nil
		}
		if err := measure("tombstoned"); err != nil {
			return err
		}
		if err := ix.Compact(); err != nil {
			return err
		}
		if err := measure("purged"); err != nil {
			return err
		}
	}
	return nil
}

// rerankRow is one configuration's measurement in the re-ranking sweep.
type rerankRow struct {
	Label     string  `json:"label"`
	M         int     `json:"m,omitempty"`
	Factor    int     `json:"factor,omitempty"`
	OPQ       bool    `json:"opq,omitempty"`
	USPerQ    float64 `json:"usPerQuery"`
	RecallAtK float64 `json:"recallAtK"`
	CandsPerQ float64 `json:"candidatesPerQuery"`
	ADCPerQ   float64 `json:"adcScoredPerQuery"`
	RerankedQ float64 `json:"rerankedPerQuery"`
	Speedup   float64 `json:"speedupVsBaseline,omitempty"`
}

// rerankReport is the JSON document `gqr-bench -rerank` emits.
type rerankReport struct {
	Meta   bench.RunMeta `json:"meta"`
	N      int           `json:"n"`
	Dim    int           `json:"dim"`
	NQ     int           `json:"nq"`
	K      int           `json:"k"`
	Budget int           `json:"budget"`
	Rows   []rerankRow   `json:"rows"`
}

// runRerankSweep measures the quantized re-ranking serving path: the
// budget-1000 workload runs against a plain index (baseline) and
// against an m × factor grid of re-ranked builds (plus one OPQ row),
// reporting per-query latency, recall@k against brute-force ground
// truth, and the stage's work counters. The whole sweep is seeded, so
// committed reports are reproducible.
//
// dim selects the corpus dimensionality. At the default d=32 the full
// m × factor grid runs; at higher dims — where exact evaluation is
// proportionally dearer and ADC's constant per-candidate cost pays off
// most — a trimmed grid (m ∈ {8,16} × factor ∈ {4,8}) keeps the PQ
// training wall-clock bounded.
func runRerankSweep(path string, nq, k int, seed int64, buildProcs, dim int) error {
	const n, budget = 20000, 1000
	if dim < 4 || dim%4 != 0 {
		return fmt.Errorf("rerank sweep: dim %d must be a positive multiple of 4", dim)
	}
	latent := 8
	if dim >= 128 {
		latent = 12
	}
	ds := dataset.Generate(dataset.GeneratorSpec{
		Name: "rerank", N: n, Dim: dim, Clusters: 16, LatentDim: latent, Seed: 27 + seed,
	})
	if nq < 1 {
		nq = 1
	}
	ds.SampleQueries(nq, 28+seed)

	// Brute-force ground truth over the live corpus: the recall
	// denominator every configuration is scored against.
	truth := make([][]int, nq)
	for qi := 0; qi < nq; qi++ {
		truth[qi] = exactTopK(ds, ds.Query(qi), k)
	}

	report := rerankReport{Meta: bench.Meta(), N: ds.N(), Dim: dim, NQ: nq, K: k, Budget: budget}
	report.Meta.Reranking = true

	// Phase 1: build every configuration up front (PQ training dominates
	// the sweep's wall clock at minutes per row). Phase 2 then times all
	// rows back-to-back in round-robin cycles: on a shared vCPU the
	// host's effective speed drifts on the minutes scale, so rows timed
	// minutes apart are not comparable — interleaved sub-second timing
	// windows see the same machine, and the per-row minimum across
	// cycles discards the slow excursions.
	type sweepCase struct {
		label     string
		m, factor int
		opq       bool
		opts      []gqr.Option
		ix        *gqr.Index
	}
	cases := []*sweepCase{{label: "baseline"}}
	ms, factors := []int{4, 8, 16}, []int{2, 4, 8}
	if dim != 32 {
		ms, factors = []int{8, 16}, []int{4, 8}
	}
	for _, m := range ms {
		for _, factor := range factors {
			cases = append(cases, &sweepCase{
				label: fmt.Sprintf("pq m=%d factor=%d", m, factor),
				m:     m, factor: factor,
				opts: []gqr.Option{gqr.WithReranking(m, 0, factor)},
			})
		}
	}
	if dim == 32 {
		cases = append(cases, &sweepCase{
			label: "opq m=8 factor=4", m: 8, factor: 4, opq: true,
			opts: []gqr.Option{gqr.WithReranking(8, 0, 4), gqr.WithOPQRotation()},
		})
	}

	for _, c := range cases {
		ix, err := gqr.Build(ds.Vectors, ds.Dim, append([]gqr.Option{
			gqr.WithSeed(29 + seed),
			gqr.WithBuildParallelism(buildProcs),
		}, c.opts...)...)
		if err != nil {
			return fmt.Errorf("%s: %w", c.label, err)
		}
		c.ix = ix
		// Warm the snapshot and searcher pool off the clock.
		if _, err := ix.Search(ds.Query(0), k, gqr.WithMaxCandidates(budget)); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "gqr-bench: built %s\n", c.label)
	}

	// Stats pass: recall and work counters (timing-insensitive).
	lat := make([]time.Duration, len(cases))
	for _, c := range cases {
		var hits, cands, adc, rer int
		for qi := 0; qi < nq; qi++ {
			nbrs, st, err := c.ix.SearchWithStats(ds.Query(qi), k, gqr.WithMaxCandidates(budget))
			if err != nil {
				return err
			}
			cands += st.Candidates
			adc += st.ADCScored
			rer += st.Reranked
			got := make(map[int]bool, len(nbrs))
			for _, nb := range nbrs {
				got[nb.ID] = true
			}
			for _, id := range truth[qi] {
				if got[id] {
					hits++
				}
			}
		}
		report.Rows = append(report.Rows, rerankRow{
			Label:     c.label,
			M:         c.m,
			Factor:    c.factor,
			OPQ:       c.opq,
			RecallAtK: float64(hits) / float64(nq*k),
			CandsPerQ: float64(cands) / float64(nq),
			ADCPerQ:   float64(adc) / float64(nq),
			RerankedQ: float64(rer) / float64(nq),
		})
	}

	// Timing cycles: every cycle visits every row once, so all rows
	// share each cycle's machine conditions; keep the per-row minimum.
	const timingCycles = 9
	for cycle := 0; cycle < timingCycles; cycle++ {
		for ci, c := range cases {
			start := time.Now()
			for qi := 0; qi < nq; qi++ {
				if _, err := c.ix.Search(ds.Query(qi), k, gqr.WithMaxCandidates(budget)); err != nil {
					return err
				}
			}
			if el := time.Since(start); cycle == 0 || el < lat[ci] {
				lat[ci] = el
			}
		}
	}
	for ci := range cases {
		report.Rows[ci].USPerQ = float64(lat[ci].Microseconds()) / float64(nq)
	}

	base := report.Rows[0].USPerQ
	for i := 1; i < len(report.Rows); i++ {
		if report.Rows[i].USPerQ > 0 {
			report.Rows[i].Speedup = base / report.Rows[i].USPerQ
		}
	}

	var w io.Writer = os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		return err
	}
	for _, row := range report.Rows {
		fmt.Fprintf(os.Stderr, "gqr-bench: %-18s %8.1f us/q  recall@%d %.4f  speedup %.2fx\n",
			row.Label, row.USPerQ, k, row.RecallAtK, row.Speedup)
	}
	return nil
}

// exactTopK computes a query's true k nearest neighbors by brute force.
func exactTopK(ds *dataset.Dataset, q []float32, k int) []int {
	n, dim := ds.N(), ds.Dim
	type cand struct {
		id int
		d  float64
	}
	all := make([]cand, n)
	for i := 0; i < n; i++ {
		row := ds.Vectors[i*dim : (i+1)*dim]
		var d float64
		for j, v := range row {
			diff := float64(q[j]) - float64(v)
			d += diff * diff
		}
		all[i] = cand{id: i, d: d}
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].d != all[b].d {
			return all[a].d < all[b].d
		}
		return all[a].id < all[b].id
	})
	if k > len(all) {
		k = len(all)
	}
	out := make([]int, k)
	for i := 0; i < k; i++ {
		out[i] = all[i].id
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gqr-bench:", err)
	os.Exit(1)
}
