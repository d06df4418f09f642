package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"text/tabwriter"
)

// benchSpec is BENCHMARK.json: the names, units and directions of every
// metric, and the share by which an end-to-end metric may get worse.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// readSpec reads BENCHMARK.json from path or, when path is empty, from the
// working directory or its parent (the benchmark runs from either).
func readSpec(path string) (benchSpec, error) {
	var spec benchSpec
	candidates := []string{path}
	if path == "" {
		candidates = []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")}
	}
	for _, p := range candidates {
		b, err := os.ReadFile(p)
		if errors.Is(err, fs.ErrNotExist) {
			continue
		}
		if err != nil {
			return spec, err
		}
		return spec, json.Unmarshal(b, &spec)
	}
	return spec, fmt.Errorf("BENCHMARK.json not found in %v", candidates)
}

// exactMetrics repeat exactly for a seed: they count work, and the program
// is deterministic. -diff compares them seed by seed and takes no spread.
// query.filtered is not among them: how many tombstones a search still meets
// depends on when a background merge purged them.
var exactMetrics = map[string]bool{
	"recall_at_10":            true,
	"query.buckets_generated": true, "query.buckets_probed": true, "query.candidates": true,
	"query.early_abandoned": true, "query.adc_scored": true, "query.reranked": true,
	"query.probe_hit_share": true, "query.abandon_share": true,
	"gqr.seals": true, "gqr.merges": true, "gqr.data_files_end": true, "gqr.saved_bytes": true,
	"index.code_bits": true, "index.buckets": true,
	"metrics.series": true, "metrics.count_mismatch": true,
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(values, n=4) gives them.
func quartiles(values []float64) (q1, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	at := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the distance between the quartiles as a share of the median;
// a single run has none.
func spread(values []float64) float64 {
	if len(values) < 2 {
		return 0
	}
	q1, q3 := quartiles(values)
	return ratio(q3-q1, median(values))
}

// side is one document's readings of one metric on one workload.
type side struct {
	values []float64
	bySeed map[int64]float64
}

func collect(doc document, workload, name string) side {
	s := side{bySeed: map[int64]float64{}}
	for _, run := range doc.Runs {
		if m, ok := run.Metrics[name]; ok && run.Workload == workload {
			s.values = append(s.values, m.Value)
			s.bySeed[run.Seed] = m.Value
		}
	}
	return s
}

// verdict compares two sets of runs of one metric: an exact metric seed by
// seed, any other end-to-end metric (bounded) against its bound.
func verdict(m metricSpec, bounded bool, a, b side) string {
	// sign turns every metric into lower-is-better.
	sign := 1.0
	if m.Better == "higher" {
		sign = -1
	}
	ma, mb := median(a.values), median(b.values)
	worseBy := sign * (mb - ma) / ma
	if exactMetrics[m.Name] {
		for seed, va := range a.bySeed {
			if vb, ok := b.bySeed[seed]; ok && va != vb {
				// A counter has no bound: only an end-to-end metric, which
				// here is recall, can be worse.
				if bounded && worseBy > 0 {
					return "worse"
				}
				return "changed"
			}
		}
		return "same"
	}
	apart := func(first, second []float64) bool { // every first below every second
		hi, lo := sign*first[0], sign*second[0]
		for _, v := range first {
			hi = max(hi, sign*v)
		}
		for _, v := range second {
			lo = min(lo, sign*v)
		}
		return hi < lo
	}
	wide := max(spread(a.values), spread(b.values)) > m.Bound
	switch {
	case worseBy > m.Bound && (!wide || apart(a.values, b.values)):
		return "worse"
	case wide && apart(b.values, a.values):
		return "better"
	case wide:
		return "unresolved"
	case worseBy < -m.Bound:
		return "better"
	}
	return "within bound"
}

// diffDocuments prints, for every workload and metric that both documents
// hold, the two medians and what the bound in BENCHMARK.json makes of them.
// It reports whether anything got worse.
func diffDocuments(w io.Writer, specPath, pathA, pathB string) (worse bool, err error) {
	spec, err := readSpec(specPath)
	if err != nil {
		return false, err
	}
	a, err := readDocument(pathA)
	if err != nil {
		return false, err
	}
	b, err := readDocument(pathB)
	if err != nil {
		return false, err
	}
	failures := func(doc document, workload string) (attempted, failed int) {
		for _, run := range doc.Runs {
			if run.Workload == workload {
				attempted += run.Attempted
				failed += run.Failed
			}
		}
		return
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\ta median\tb median\tchange\truns\tspread a\tspread b\tbound\tverdict")
	for _, wl := range spec.Workloads {
		attA, failA := failures(a, wl.Name)
		attB, failB := failures(b, wl.Name)
		if attA == 0 || attB == 0 {
			continue
		}
		v := "same"
		if failB*attA > failA*attB {
			v, worse = "worse", true
		}
		fmt.Fprintf(tw, "%s\tfailed\tops\t%d of %d\t%d of %d\t\t\t\t\t0\t%s\n", wl.Name, failA, attA, failB, attB, v)
		for i, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
			sa, sb := collect(a, wl.Name, m.Name), collect(b, wl.Name, m.Name)
			if len(sa.values) == 0 || len(sb.values) == 0 {
				continue
			}
			v, bound := "", "-"
			switch {
			case i < len(spec.EndToEnd):
				v, bound = verdict(m, true, sa, sb), fmt.Sprintf("%.0f%%", m.Bound*100)
			case exactMetrics[m.Name]:
				v = verdict(m, false, sa, sb)
			}
			worse = worse || v == "worse"
			ma, mb := median(sa.values), median(sb.values)
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%+.1f%%\t%d/%d\t%.1f%%\t%.1f%%\t%s\t%s\n", wl.Name, m.Name, m.Unit,
				ma, mb, ratio(mb-ma, ma)*100, len(sa.values), len(sb.values), spread(sa.values)*100, spread(sb.values)*100, bound, v)
		}
	}
	return worse, tw.Flush()
}
