// Command benchmark is the one harness for the GQR serving stack: five
// named workloads against an in-process HTTP server, end-to-end metrics
// with tracing off and per-layer metrics from a separate traced run. See
// README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "all", "workload to run, or all")
		seed    = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds = flag.Int("seconds", 12, "length of the measured part of a run")
		traced  = flag.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
		out     = flag.String("out", "", "append the run to this results document")
		workdir = flag.String("workdir", filepath.Join(".bench_build", "run"), "directory for data directories and trace files")
		diff    = flag.Bool("diff", false, "compare two results documents given as arguments")
		spec    = flag.String("spec", "", "path of BENCHMARK.json (default: found in . or ..)")
	)
	flag.Parse()
	if *diff {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-diff takes two results documents"))
		}
		worse, err := diffDocuments(os.Stdout, *spec, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	todo := workloads
	if *name != "all" {
		w, ok := findWorkload(*name)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		todo = []workload{w}
	}
	if *seconds < 1 {
		fatal(fmt.Errorf("-seconds must be at least 1"))
	}
	for _, w := range todo {
		res, err := runWorkload(w, fullSize, *seed, time.Duration(*seconds)*time.Second, *traced != 0, *workdir)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", w.name, err))
		}
		if *out != "" {
			if err := appendRun(*out, res); err != nil {
				fatal(err)
			}
		}
		if res.FirstFailure != "" {
			fmt.Fprintf(os.Stderr, "%s: first failure: %s\n", w.name, res.FirstFailure)
		}
		printResult(res)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// runWorkload runs one workload once and tears everything down.
func runWorkload(w workload, sz sizing, seed int64, measure time.Duration, traced bool, workdir string) (result, error) {
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return result{}, err
	}
	dir, err := os.MkdirTemp(workdir, w.name+"-")
	if err != nil {
		return result{}, err
	}
	r := &run{w: w, sz: sz, seed: seed, dir: dir, metrics: map[string]metric{}}
	defer r.tearDown()
	if traced {
		err = r.layers(measure, filepath.Join(workdir, "trace-"+w.name+".json"))
	} else {
		err = r.endToEnd(measure)
	}
	if err != nil {
		return result{}, err
	}
	for name, m := range r.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return result{}, fmt.Errorf("metric %s is %v", name, m.Value)
		}
	}
	res := result{Workload: w.name, Seed: seed, Seconds: measure.Seconds(), Trace: traced,
		Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: r.metrics}
	if r.first != nil {
		res.FirstFailure = r.first.Error()
	}
	return res, nil
}

// printResult writes the line the driver reads: one JSON object, last on
// standard output.
func printResult(res result) {
	type reading struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool               `json:"correct"`
		Attempted int                `json:"attempted"`
		Failed    int                `json:"failed"`
		Metrics   map[string]reading `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]reading{}}
	for name, m := range res.Metrics {
		line.Metrics[name] = reading{m.Value, m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}
