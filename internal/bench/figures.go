package bench

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"time"

	"gqr/internal/dataset"
	"gqr/internal/index"
	"gqr/internal/quantization"
	"gqr/internal/query"
)

// primary is the paper's four main corpora (simulated analogues).
func primary() []string { return dataset.AllCorpora() }

func init() {
	register("table1", "Table 1: dataset statistics and linear search time", runTable1)
	register("fig2", "Figure 2: number of buckets versus Hamming distance", runFig2)
	register("fig4", "Figure 4: Hamming ranking with different code lengths", runFig4)
	register("fig6", "Figure 6: GQR versus QR (slow start)", runFig6)
	register("fig7", "Figure 7: GQR versus HR/GHR, recall-time (ITQ)", runFig7)
	register("fig8", "Figure 8: recall versus retrieved items (ITQ)", runFig8)
	register("fig9", "Figure 9: querying time at typical recalls (ITQ)", runFig9)
	register("fig10", "Figure 10: effect of code length", runFig10)
	register("fig11", "Figure 11: speedup over HR for various k", runFig11)
	register("fig12", "Figure 12: multiple hash tables (GHR) vs one-table GQR", runFig12)
	register("fig13", "Figure 13: GQR versus HR/GHR, recall-time (PCAH)", runFig13)
	register("fig14", "Figure 14: querying time at typical recalls (PCAH)", runFig14)
	register("fig15", "Figure 15: GQR versus HR/GHR, recall-time (SH)", runFig15)
	register("fig16", "Figure 16: querying time at typical recalls (SH)", runFig16)
	register("fig17", "Figure 17: PCAH+GQR versus OPQ+IMI", runFig17)
	register("table2", "Table 2: training cost, OPQ versus PCAH", runTable2)
	register("fig18", "Figure 18: GQR/GHR versus MIH (ITQ)", runFig18)
	register("fig19", "Figure 19: GQR/GHR versus MIH (PCAH)", runFig19)
	register("fig20", "Figure 20: GQR versus GHR with K-means hashing", runFig20)
	register("fig21", "Figures 21-22 & Table 3: eight additional datasets vs OPQ+IMI", runFig21)
	register("abl-heap", "Ablation: GQR min-heap versus naive frontier scan", runAblHeap)
	register("abl-tree", "Ablation: on-the-fly Append/Swap versus shared generation tree", runAblTree)
	register("abl-pack", "Ablation: packed uint64 codes versus byte-slice codes", runAblPack)
	register("abl-earlystop", "Ablation: QD lower-bound early stop", runAblEarlyStop)
}

func runTable1(opt RunOptions, w io.Writer) error {
	opt = opt.normalize()
	Rule(w, "Table 1: dataset statistics and linear search")
	fmt.Fprintf(w, "%-14s %-8s %-10s %-14s %-12s\n", "dataset", "dim", "items", "linear-search", "per-query")
	for _, name := range primary() {
		ds := corpus(name, opt)
		start := time.Now()
		ds.LinearSearchAll(opt.K)
		elapsed := time.Since(start)
		fmt.Fprintf(w, "%-14s %-8d %-10d %-14s %-12s\n",
			name, ds.Dim, ds.N(), fmtDur(elapsed), fmtDur(elapsed/time.Duration(ds.NQ())))
	}
	return nil
}

func runFig2(opt RunOptions, w io.Writer) error {
	Rule(w, "Figure 2: #buckets vs Hamming distance (m = 20)")
	fmt.Fprintf(w, "%-10s %-14s\n", "distance", "#buckets C(20,r)")
	c := 1.0
	for r := 0; r <= 20; r++ {
		fmt.Fprintf(w, "%-10d %-14.0f\n", r, c)
		c = c * float64(20-r) / float64(r+1)
	}
	fmt.Fprintln(w, "\nEven at moderate distances the bucket count explodes, so Hamming")
	fmt.Fprintln(w, "ranking cannot order buckets within a distance class.")
	return nil
}

func runFig4(opt RunOptions, w io.Writer) error {
	opt = opt.normalize()
	Rule(w, "Figure 4: Hamming ranking at different code lengths (cifar-sim, ITQ)")
	ds := corpus(dataset.CorpusCIFAR, opt)
	def := index.CodeLengthFor(ds.N(), 10)
	lengths := []int{def - 2, def + 4, def + 10} // scaled stand-ins for 16/32/64
	var curves []Curve
	for _, bits := range lengths {
		cs, err := measureMethods(opt, dataset.CorpusCIFAR, "itq", bits, 1, []string{"hr"})
		if err != nil {
			return err
		}
		cs[0].Label = fmt.Sprintf("hr-%d", bits)
		curves = append(curves, cs[0])
	}
	fmt.Fprintln(w, "\n(a) precision versus recall — longer codes are more precise")
	fmt.Fprintf(w, "%-10s", "recall")
	for _, c := range curves {
		fmt.Fprintf(w, " | %-12s", c.Label)
	}
	fmt.Fprintln(w)
	for i := range curves[0].Points {
		fmt.Fprintf(w, "%-10.3f", curves[0].Points[i].Recall)
		for _, c := range curves {
			fmt.Fprintf(w, " | %-12.4f", PointPrecision(c.Points[i], opt.K))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "\n(b) recall versus time — longer codes are slower to query")
	WriteCurves(w, "recall-time", curves)
	return nil
}

func runFig6(opt RunOptions, w io.Writer) error {
	opt = opt.normalize()
	Rule(w, "Figure 6: GQR vs QR")
	for _, name := range primary() {
		curves, err := measureMethods(opt, name, "itq", 0, 1, []string{"gqr", "qr"})
		if err != nil {
			return err
		}
		ds := corpus(name, opt)
		ix, err := buildIndex(ds, opt, name, "itq", 0, 1)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s: %d buckets (QR sorts all of them before the first probe)\n",
			name, ix.BucketCount(0))
		WriteCurves(w, name, curves)
	}
	return nil
}

// methodComparison renders the fig7/13/15/18/19-style experiments.
func methodComparison(opt RunOptions, w io.Writer, title, learner string, methods []string) error {
	opt = opt.normalize()
	Rule(w, title)
	for _, name := range primary() {
		curves, err := measureMethods(opt, name, learner, 0, 1, methods)
		if err != nil {
			return err
		}
		WriteCurves(w, name, curves)
	}
	return nil
}

// timeToRecallComparison renders the fig9/14/16-style experiments.
func timeToRecallComparison(opt RunOptions, w io.Writer, title, learner string, methods []string) error {
	opt = opt.normalize()
	Rule(w, title)
	for _, name := range primary() {
		curves, err := measureMethods(opt, name, learner, 0, 1, methods)
		if err != nil {
			return err
		}
		WriteTimeToRecall(w, name, curves, []float64{0.80, 0.85, 0.90, 0.95})
	}
	return nil
}

func runFig7(opt RunOptions, w io.Writer) error {
	return methodComparison(opt, w, "Figure 7: GQR vs GHR vs HR (ITQ)", "itq", []string{"gqr", "ghr", "hr"})
}

func runFig8(opt RunOptions, w io.Writer) error {
	opt = opt.normalize()
	Rule(w, "Figure 8: recall vs retrieved items (ITQ)")
	for _, name := range primary() {
		curves, err := measureMethods(opt, name, "itq", 0, 1, []string{"gqr", "ghr", "hr"})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "## %s\n\n%-10s", name, "items")
		for _, c := range curves {
			fmt.Fprintf(w, " | %-12s", c.Label+"·recall")
		}
		fmt.Fprintln(w)
		for i := range curves[0].Points {
			fmt.Fprintf(w, "%-10.0f", curves[0].Points[i].Candidates)
			for _, c := range curves {
				fmt.Fprintf(w, " | %-12.4f", c.Points[i].Recall)
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintln(w)
	}
	return nil
}

func runFig9(opt RunOptions, w io.Writer) error {
	return timeToRecallComparison(opt, w, "Figure 9: time to typical recalls (ITQ)", "itq", []string{"hr", "ghr", "gqr"})
}

func runFig10(opt RunOptions, w io.Writer) error {
	opt = opt.normalize()
	Rule(w, "Figure 10: effect of code length (time to 90% recall)")
	for _, name := range []string{dataset.CorpusTINY, dataset.CorpusSIFT} {
		ds := corpus(name, opt)
		def := index.CodeLengthFor(ds.N(), 10)
		fmt.Fprintf(w, "## %s (default code length %d)\n\n", name, def)
		fmt.Fprintf(w, "%-8s | %-12s | %-12s | %-12s\n", "bits", "hr", "ghr", "gqr")
		for _, bits := range []int{def - 2, def, def + 2, def + 4} {
			fmt.Fprintf(w, "%-8d", bits)
			curves, err := measureMethods(opt, name, "itq", bits, 1, []string{"hr", "ghr", "gqr"})
			if err != nil {
				return err
			}
			for _, c := range curves {
				if t, err := TimeToRecall(c, 0.90); err == nil {
					fmt.Fprintf(w, " | %-12s", fmtDur(t))
				} else {
					fmt.Fprintf(w, " | %-12s", "n/a")
				}
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintln(w)
	}
	return nil
}

func runFig11(opt RunOptions, w io.Writer) error {
	opt = opt.normalize()
	Rule(w, "Figure 11: speedup over HR to reach 90% recall, varying k")
	for _, name := range []string{dataset.CorpusTINY, dataset.CorpusSIFT} {
		fmt.Fprintf(w, "## %s\n\n%-8s | %-10s | %-10s\n", name, "k", "ghr", "gqr")
		for _, k := range []int{1, 10, 50, 100} {
			kOpt := opt
			kOpt.K = k
			curves, err := measureMethods(kOpt, name, "itq", 0, 1, []string{"hr", "ghr", "gqr"})
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%-8d", k)
			for _, c := range curves[1:] {
				sp, err := Speedup(curves[0], c, 0.90)
				if err != nil {
					fmt.Fprintf(w, " | %-10s", "n/a")
					continue
				}
				fmt.Fprintf(w, " | %-10.2f", sp)
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintln(w)
	}
	return nil
}

func runFig12(opt RunOptions, w io.Writer) error {
	opt = opt.normalize()
	Rule(w, "Figure 12: multi-table GHR vs single-table GQR")
	targets := []float64{0.80, 0.85, 0.90, 0.95, 0.98, 0.99}
	for _, name := range []string{dataset.CorpusTINY, dataset.CorpusSIFT} {
		ds := corpus(name, opt)
		var curves []Curve
		for _, tables := range []int{1, 10, 20, 30} {
			cs, err := measureMethods(opt, name, "itq", 0, tables, []string{"ghr"})
			if err != nil {
				return err
			}
			cs[0].Label = fmt.Sprintf("ghr(%d)", tables)
			curves = append(curves, cs[0])
			ix, err := buildIndex(ds, opt, name, "itq", 0, tables)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "ghr(%d) index memory: %s\n", tables, fmtBytes(uint64(ix.MemoryBytes())))
		}
		cs, err := measureMethods(opt, name, "itq", 0, 1, []string{"gqr"})
		if err != nil {
			return err
		}
		cs[0].Label = "gqr(1)"
		curves = append(curves, cs[0])
		ix1, err := buildIndex(ds, opt, name, "itq", 0, 1)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "gqr(1) index memory: %s — the paper's memory-saving claim\n\n", fmtBytes(uint64(ix1.MemoryBytes())))
		WriteTimeToRecall(w, name, curves, targets)
	}
	return nil
}

func runFig13(opt RunOptions, w io.Writer) error {
	return methodComparison(opt, w, "Figure 13: GQR vs GHR vs HR (PCAH)", "pcah", []string{"gqr", "ghr", "hr"})
}

func runFig14(opt RunOptions, w io.Writer) error {
	return timeToRecallComparison(opt, w, "Figure 14: time to typical recalls (PCAH)", "pcah", []string{"hr", "ghr", "gqr"})
}

func runFig15(opt RunOptions, w io.Writer) error {
	return methodComparison(opt, w, "Figure 15: GQR vs GHR vs HR (SH)", "sh", []string{"gqr", "ghr", "hr"})
}

func runFig16(opt RunOptions, w io.Writer) error {
	return timeToRecallComparison(opt, w, "Figure 16: time to typical recalls (SH)", "sh", []string{"hr", "ghr", "gqr"})
}

// imiFor builds (or reuses) the OPQ+IMI system for a corpus.
type imiKey struct {
	corpus string
	scale  float64
	nq, k  int
	seed   int64
}

var imiCache = map[imiKey]*quantization.IMI{}

func imiFor(ds *dataset.Dataset, opt RunOptions, corpusName string) (*quantization.IMI, error) {
	key := imiKey{corpusName, opt.Scale, opt.NQ, opt.K, opt.Seed}
	if imi, ok := imiCache[key]; ok {
		return imi, nil
	}
	// Coarse codebook sized so cells ≈ buckets of the L2H index
	// (K² ≈ N/10), keeping the comparison structure-for-structure fair.
	kCoarse := int(math.Sqrt(float64(ds.N()) / 10))
	if kCoarse < 4 {
		kCoarse = 4
	}
	if kCoarse > 64 {
		kCoarse = 64
	}
	cfg := quantization.IMIConfig{
		M: 4, KFine: 16, KCoarse: kCoarse,
		OPQIters: 5, KMeansIters: 10,
		TrainSample: 10000,
		Seed:        2000 + opt.Seed,
	}
	imi, err := quantization.BuildIMI(ds.Vectors, ds.N(), ds.Dim, cfg)
	if err != nil {
		return nil, err
	}
	imiCache[key] = imi
	return imi, nil
}

func runFig17(opt RunOptions, w io.Writer) error {
	opt = opt.normalize()
	Rule(w, "Figure 17: PCAH+GQR vs PCAH+GHR vs OPQ+IMI")
	for _, name := range primary() {
		ds := corpus(name, opt)
		curves, err := measureMethods(opt, name, "pcah", 0, 1, []string{"gqr", "ghr"})
		if err != nil {
			return err
		}
		curves[0].Label = "pcah+gqr"
		curves[1].Label = "pcah+ghr"
		imi, err := imiFor(ds, opt, name)
		if err != nil {
			return err
		}
		ic, err := IMICurve(ds, imi, opt.Budgets, opt.K)
		if err != nil {
			return err
		}
		curves = append(curves, ic)
		WriteCurves(w, name, curves)
	}
	return nil
}

func runTable2(opt RunOptions, w io.Writer) error {
	opt = opt.normalize()
	Rule(w, "Table 2: training cost, OPQ vs PCAH")
	fmt.Fprintf(w, "%-14s | %-12s %-12s | %-12s %-12s\n", "dataset", "opq-wall", "opq-alloc", "pcah-wall", "pcah-alloc")
	for _, name := range primary() {
		ds := corpus(name, opt)
		opqCost, err := MeasureTraining(func() error {
			_, e := imiTrainOnly(ds, opt)
			return e
		})
		if err != nil {
			return err
		}
		pcahCost, err := MeasureTraining(func() error {
			l, e := learnerFor("pcah")
			if e != nil {
				return e
			}
			bits := index.CodeLengthFor(ds.N(), 10)
			_, e = l.Train(ds.Vectors, ds.N(), ds.Dim, bits, 1)
			return e
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-14s | %-12s %-12s | %-12s %-12s\n", name,
			fmtDur(opqCost.WallTime), fmtBytes(opqCost.AllocBytes),
			fmtDur(pcahCost.WallTime), fmtBytes(pcahCost.AllocBytes))
	}
	fmt.Fprintln(w, "\nCPU time equals wall time here (single-threaded); the paper's CPU/wall")
	fmt.Fprintln(w, "gap came from MATLAB's multi-core BLAS.")
	return nil
}

// imiTrainOnly trains a fresh OPQ+IMI without caching, for cost
// measurement.
func imiTrainOnly(ds *dataset.Dataset, opt RunOptions) (*quantization.IMI, error) {
	kCoarse := int(math.Sqrt(float64(ds.N()) / 10))
	if kCoarse < 4 {
		kCoarse = 4
	}
	if kCoarse > 64 {
		kCoarse = 64
	}
	return quantization.BuildIMI(ds.Vectors, ds.N(), ds.Dim, quantization.IMIConfig{
		M: 4, KFine: 16, KCoarse: kCoarse,
		OPQIters: 5, KMeansIters: 10, TrainSample: 10000, Seed: 3000 + opt.Seed,
	})
}

func fmtBytes(b uint64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2fGiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}

func runFig18(opt RunOptions, w io.Writer) error {
	return methodComparison(opt, w, "Figures 18: GQR vs GHR vs MIH (ITQ)", "itq", []string{"gqr", "ghr", "mih"})
}

func runFig19(opt RunOptions, w io.Writer) error {
	return methodComparison(opt, w, "Figure 19: GQR vs GHR vs MIH (PCAH)", "pcah", []string{"gqr", "ghr", "mih"})
}

func runFig20(opt RunOptions, w io.Writer) error {
	return methodComparison(opt, w, "Figure 20: GQR vs GHR with K-means hashing", "kmh", []string{"gqr", "ghr"})
}

func runFig21(opt RunOptions, w io.Writer) error {
	opt = opt.normalize()
	Rule(w, "Figures 21-22 & Table 3: additional datasets")
	fmt.Fprintf(w, "%-16s %-6s %-10s %-6s\n", "dataset", "dim", "items", "bits")
	for _, name := range dataset.AppendixCorpora() {
		ds := corpus(name, opt)
		fmt.Fprintf(w, "%-16s %-6d %-10d %-6d\n", name, ds.Dim, ds.N(), index.CodeLengthFor(ds.N(), 10))
	}
	fmt.Fprintln(w)
	for _, name := range dataset.AppendixCorpora() {
		ds := corpus(name, opt)
		var curves []Curve
		for _, learner := range []string{"itq", "pcah"} {
			cs, err := measureMethods(opt, name, learner, 0, 1, []string{"gqr"})
			if err != nil {
				return err
			}
			cs[0].Label = learner + "+gqr"
			curves = append(curves, cs[0])
		}
		imi, err := imiFor(ds, opt, name)
		if err != nil {
			return err
		}
		ic, err := IMICurve(ds, imi, opt.Budgets, opt.K)
		if err != nil {
			return err
		}
		curves = append(curves, ic)
		WriteCurves(w, name, curves)
	}
	return nil
}

// ---- ablations -------------------------------------------------------

func runAblHeap(opt RunOptions, w io.Writer) error {
	opt = opt.normalize()
	Rule(w, "Ablation: GQR heap vs naive frontier scan (bucket generation only; gqr is the serving queue form)")
	ds := corpus(dataset.CorpusTINY, opt)
	ix, err := buildIndex(ds, opt, dataset.CorpusTINY, "itq", 0, 1)
	if err != nil {
		return err
	}
	gen := 1 << uint(ix.Bits())
	if gen > 8192 {
		gen = 8192
	}
	fmt.Fprintf(w, "generating the first %d buckets for %d queries:\n\n", gen, ds.NQ())
	timeGeneration(w, ds, ix, gen, query.NewGQRHeap(ix), query.NewGQRNaive(ix), query.NewGQR(ix))
	return nil
}

// timeGeneration times each method generating the first gen buckets of
// every query's table-0 probe sequence (no probing, no evaluation).
func timeGeneration(w io.Writer, ds *dataset.Dataset, ix *index.Index, gen int, methods ...query.Method) {
	for _, m := range methods {
		start := time.Now()
		var sink uint64
		for qi := 0; qi < ds.NQ(); qi++ {
			seq := query.NewSequence(m, ix, 0, ds.Query(qi))
			for i := 0; i < gen; i++ {
				code, _, ok := seq.Next()
				if !ok {
					break
				}
				sink ^= code
			}
		}
		elapsed := time.Since(start)
		fmt.Fprintf(w, "%-12s %-12s (%.0f ns/bucket, checksum %x)\n",
			m.Name(), fmtDur(elapsed), float64(elapsed.Nanoseconds())/float64(gen*ds.NQ()), sink)
	}
}

func runAblTree(opt RunOptions, w io.Writer) error {
	opt = opt.normalize()
	Rule(w, "Ablation: bit-op Append/Swap vs shared generation-tree array")
	ds := corpus(dataset.CorpusCIFAR, opt)
	ix, err := buildIndex(ds, opt, dataset.CorpusCIFAR, "itq", 0, 1)
	if err != nil {
		return err
	}
	gen := 1 << uint(ix.Bits())
	fmt.Fprintf(w, "full enumeration (%d buckets) for %d queries:\n\n", gen, ds.NQ())
	timeGeneration(w, ds, ix, gen, query.NewGQRHeap(ix), query.NewGQRSharedTree(ix))
	return nil
}

func runAblPack(opt RunOptions, w io.Writer) error {
	Rule(w, "Ablation: Hamming distance on packed uint64 vs byte-slice codes")
	const n = 1 << 16
	rng := rand.New(rand.NewSource(9))
	packed := make([]uint64, n)
	unpacked := make([][]byte, n)
	const m = 20
	for i := range packed {
		packed[i] = uint64(rng.Int63()) & ((1 << m) - 1)
		b := make([]byte, m)
		for j := 0; j < m; j++ {
			b[j] = byte((packed[i] >> uint(j)) & 1)
		}
		unpacked[i] = b
	}
	q := packed[0]
	qb := unpacked[0]

	start := time.Now()
	var sink int
	const reps = 50
	for r := 0; r < reps; r++ {
		for _, c := range packed {
			sink += popcountSlow(c ^ q)
		}
	}
	tPacked := time.Since(start)

	start = time.Now()
	for r := 0; r < reps; r++ {
		for _, c := range unpacked {
			d := 0
			for j := 0; j < m; j++ {
				if c[j] != qb[j] {
					d++
				}
			}
			sink += d
		}
	}
	tBytes := time.Since(start)
	fmt.Fprintf(w, "packed xor+popcount: %-10s (%.1f ns/code)\n", fmtDur(tPacked), float64(tPacked.Nanoseconds())/float64(n*reps))
	fmt.Fprintf(w, "byte-slice loop:     %-10s (%.1f ns/code)\n", fmtDur(tBytes), float64(tBytes.Nanoseconds())/float64(n*reps))
	fmt.Fprintf(w, "speedup: %.1fx (checksum %d)\n", float64(tBytes)/float64(tPacked), sink)
	return nil
}

func popcountSlow(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

func runAblEarlyStop(opt RunOptions, w io.Writer) error {
	opt = opt.normalize()
	Rule(w, "Ablation: QD lower-bound early stop (ITQ, exact search)")
	ds := corpus(dataset.CorpusCIFAR, opt)
	ix, err := buildIndex(ds, opt, dataset.CorpusCIFAR, "itq", 0, 1)
	if err != nil {
		return err
	}
	mu := 1 / math.Sqrt(float64(ix.Bits())) // ITQ: σ_max(H) = 1
	for _, es := range []bool{false, true} {
		s := query.NewSearcher(ix, query.NewGQR(ix))
		var buckets, cands float64
		stopped := 0
		start := time.Now()
		for qi := 0; qi < ds.NQ(); qi++ {
			res, err := s.Search(ds.Query(qi), query.Options{K: opt.K, EarlyStop: es, Mu: mu})
			if err != nil {
				return err
			}
			buckets += float64(res.Stats.BucketsGenerated)
			cands += float64(res.Stats.Candidates)
			if res.Stats.EarlyStopped {
				stopped++
			}
		}
		elapsed := time.Since(start)
		nq := float64(ds.NQ())
		fmt.Fprintf(w, "early-stop=%-5v time=%-10s avg-buckets=%-10.0f avg-items=%-10.0f stopped=%d/%d\n",
			es, fmtDur(elapsed), buckets/nq, cands/nq, stopped, ds.NQ())
	}
	fmt.Fprintln(w, "\nBoth configurations return the exact k-NN; early stop prunes the tail.")
	return nil
}
