package gqr

import (
	"fmt"
	"time"
)

// Algorithm selects the hash-function learner.
type Algorithm string

// Supported learning algorithms.
const (
	// ITQ is iterative quantization: PCA plus a learned rotation
	// minimizing quantization error. The paper's default learner.
	ITQ Algorithm = "itq"
	// PCAH is PCA hashing: thresholded principal components. The
	// cheapest learner; with GQR it approaches OPQ quality.
	PCAH Algorithm = "pcah"
	// SH is spectral hashing: thresholded Laplacian eigenfunctions
	// along principal directions (a non-linear projection).
	SH Algorithm = "sh"
	// KMH is K-means hashing: per-subspace Voronoi quantization with
	// binary codeword indices.
	KMH Algorithm = "kmh"
	// LSH is the data-oblivious sign-random-projection baseline.
	LSH Algorithm = "lsh"
	// SSH is semi-supervised hashing with self-generated pseudo-pairs
	// (must-link/cannot-link constraints plus a PCA regularizer).
	SSH Algorithm = "ssh"
)

// QueryMethod selects the bucket-probing strategy.
type QueryMethod string

// Supported querying methods.
const (
	// GQR is generate-to-probe quantization-distance ranking — the
	// paper's contribution and the default.
	GQR QueryMethod = "gqr"
	// QR is quantization-distance ranking with up-front sorting of all
	// buckets (Algorithm 1; suffers the slow-start problem).
	QR QueryMethod = "qr"
	// HR is classic Hamming ranking (sort all buckets by Hamming
	// distance).
	HR QueryMethod = "hr"
	// GHR is generate-to-probe Hamming ranking, a.k.a. hash lookup.
	GHR QueryMethod = "ghr"
	// MIH is multi-index hashing over code substrings.
	MIH QueryMethod = "mih"
)

// Metric selects the distance the index answers queries under.
type Metric string

// Supported metrics.
const (
	// Euclidean is the default: exact L2 distances.
	Euclidean Metric = "euclidean"
	// Angular answers cosine/angular-similarity queries by normalizing
	// vectors onto the unit sphere, where Euclidean distance is
	// monotone in angular distance (the adaptation the paper's §4
	// mentions). Reported distances are chordal: cosine similarity
	// = 1 − d²/2.
	Angular Metric = "angular"
)

// config collects Build options.
type config struct {
	algorithm Algorithm
	method    QueryMethod
	metric    Metric
	bits      int
	tables    int
	seed      int64
	expected  int // expected items per bucket for the code-length rule
	procs     int // build worker bound; 0 means GOMAXPROCS

	// Flight-recorder settings; tracing is enabled when either policy
	// is set (see WithTracing / WithSlowQueryThreshold).
	traceSample   int
	slowQuery     time.Duration
	traceCapacity int

	// memtable is the Add count at which the memtable is sealed into a
	// frozen segment; walOff disables the write-ahead log when
	// durability is enabled (see WithoutAddWAL).
	memtable int
	walOff   bool

	// Quantized re-ranking (see WithReranking / WithOPQRotation). Zero
	// values for m/k/factor pick defaults at build time.
	rerank       bool
	rerankM      int
	rerankK      int
	rerankFactor int
	opq          bool
}

// defaultMemtableSize is the memtable seal threshold: small enough that
// the inline seal cost on the Add path stays microseconds, large enough
// that segments are worth merging.
const defaultMemtableSize = 256

func defaultConfig() config {
	return config{
		algorithm: ITQ,
		method:    GQR,
		metric:    Euclidean,
		tables:    1,
		expected:  10,
		memtable:  defaultMemtableSize,
	}
}

func (c config) validate() error {
	switch c.algorithm {
	case ITQ, PCAH, SH, KMH, LSH, SSH:
	default:
		return fmt.Errorf("gqr: unknown algorithm %q", c.algorithm)
	}
	switch c.method {
	case GQR, QR, HR, GHR, MIH:
	default:
		return fmt.Errorf("gqr: unknown query method %q", c.method)
	}
	switch c.metric {
	case Euclidean, Angular:
	default:
		return fmt.Errorf("gqr: unknown metric %q", c.metric)
	}
	if c.bits < 0 || c.bits > 64 {
		return fmt.Errorf("gqr: code length %d out of [0,64]", c.bits)
	}
	if c.tables < 1 {
		return fmt.Errorf("gqr: table count %d < 1", c.tables)
	}
	if c.procs < 0 {
		return fmt.Errorf("gqr: build parallelism %d < 0", c.procs)
	}
	if c.traceSample < 0 {
		return fmt.Errorf("gqr: trace sample rate %d < 0", c.traceSample)
	}
	if c.slowQuery < 0 {
		return fmt.Errorf("gqr: slow-query threshold %v < 0", c.slowQuery)
	}
	if c.traceCapacity < 0 {
		return fmt.Errorf("gqr: trace buffer capacity %d < 0", c.traceCapacity)
	}
	if c.memtable < 1 {
		return fmt.Errorf("gqr: memtable size %d < 1", c.memtable)
	}
	if c.opq && !c.rerank {
		return fmt.Errorf("gqr: WithOPQRotation requires WithReranking")
	}
	if c.rerank {
		if c.rerankM < 0 {
			return fmt.Errorf("gqr: rerank subspace count %d < 0", c.rerankM)
		}
		if c.rerankK < 0 || c.rerankK > 256 {
			return fmt.Errorf("gqr: rerank centroid count %d out of [0,256]", c.rerankK)
		}
		if c.rerankFactor < 0 {
			return fmt.Errorf("gqr: rerank factor %d < 0", c.rerankFactor)
		}
	}
	return nil
}

// Option configures Build.
type Option func(*config)

// WithAlgorithm selects the hash-function learner (default ITQ).
func WithAlgorithm(a Algorithm) Option { return func(c *config) { c.algorithm = a } }

// WithQueryMethod selects the querying method (default GQR).
func WithQueryMethod(m QueryMethod) Option { return func(c *config) { c.method = m } }

// WithMetric selects the distance metric (default Euclidean). Angular
// copies and L2-normalizes the vectors at build time and normalizes
// every query, so the caller's block is never modified.
func WithMetric(m Metric) Option { return func(c *config) { c.metric = m } }

// WithCodeLength fixes the code length in bits (1-64). The default 0
// applies the paper's rule m ≈ log2(n/EP) with EP=10 expected items per
// bucket.
func WithCodeLength(bits int) Option { return func(c *config) { c.bits = bits } }

// WithExpectedBucketSize changes the EP constant of the automatic
// code-length rule (default 10, as in the paper).
func WithExpectedBucketSize(ep int) Option { return func(c *config) { c.expected = ep } }

// WithTables builds the given number of hash tables (default 1). More
// tables raise recall per probed bucket at a memory cost; the paper
// shows one GQR table beats up to 30 GHR tables.
func WithTables(n int) Option { return func(c *config) { c.tables = n } }

// WithSeed fixes the training seed for reproducible indexes (default 0).
func WithSeed(seed int64) Option { return func(c *config) { c.seed = seed } }

// WithBuildParallelism bounds the number of workers Build uses across
// every stage — training mat-mul/k-means kernels, concurrent per-table
// hasher training, and chunked item coding. Zero (the default) means
// runtime.GOMAXPROCS(0). The built index is bit-for-bit identical at
// any setting — same hash codes, same persisted bytes, same search
// results — so this only trades build latency against CPU; results
// never depend on it.
func WithBuildParallelism(p int) Option { return func(c *config) { c.procs = p } }

// WithTracing enables the query flight recorder with uniform 1-in-n
// sampling: every n-th query (1 = every query) records per-stage spans
// and is captured into the recorder's ring buffer, retrievable through
// Index.TraceRecorder (and /debug/querytrace on the HTTP server).
// Tracing a query costs a few clock reads per probed bucket plus
// pooled span storage; non-sampled queries — and every query when
// tracing is off — pay only a nil check. n <= 0 leaves uniform
// sampling off.
func WithTracing(sampleEvery int) Option {
	return func(c *config) { c.traceSample = sampleEvery }
}

// WithSlowQueryThreshold enables threshold-triggered slow-query
// capture: every query records a trace (the per-stage breakdown must
// already exist by the time a query turns out slow), and queries whose
// total latency reaches d are always retained in the flight recorder,
// regardless of sampling. Combine with WithTracing to also keep a
// uniform sample of ordinary queries.
func WithSlowQueryThreshold(d time.Duration) Option {
	return func(c *config) { c.slowQuery = d }
}

// WithTraceBuffer sets the flight recorder's ring-buffer capacity in
// traces (default 64). New captures overwrite the oldest.
func WithTraceBuffer(capacity int) Option {
	return func(c *config) { c.traceCapacity = capacity }
}

// WithMemtableSize sets how many Adds accumulate in the mutable
// memtable before it is sealed into a frozen segment (default 256).
// Sealing is the only inline compaction work the Add path ever does —
// O(memtable), amortized O(1) per Add; folding segments together
// happens on a background goroutine. Larger values batch more Adds per
// segment (fewer files under durability) at the cost of a larger
// memtable clone on snapshot publication.
func WithMemtableSize(items int) Option { return func(c *config) { c.memtable = items } }

// WithReranking enables the quantized re-ranking stage: Build trains a
// product-quantization codebook over the corpus (m subspaces of k
// centroids each; every item stores m code bytes), and each query
// scores its gathered candidates through a per-query ADC lookup table
// first, keeping only the best factor×k for exact distance evaluation.
// With a candidate budget far above k this trades a ≤1% recall dip for
// a large evaluation-cost cut: candidates cost m table lookups instead
// of a dim-float L2. Zero values pick defaults: m=8 (clamped to dim),
// k=256 (clamped to n), factor=8. Off by default; when off, behavior
// and persisted bytes are identical to an index built without it.
//
// The cost is paid at Build and on every Add. Training runs Lloyd
// k-means per subspace, nearly all of it nearest-centroid search through
// one branch-free four-lane kernel (AVX2 where the CPU has it): on
// 10 000 × 128 at m=16, k=256 about 1.2 s on two cores. Each Add
// encodes its vector against the m codebooks, m searches of k centroids.
// Each query builds its m×k ADC table with a SIMD row kernel (AVX2
// where the CPU has it), about 1.8 µs at dim 128, m=16, k=256.
func WithReranking(m, k, factor int) Option {
	return func(c *config) { c.rerank, c.rerankM, c.rerankK, c.rerankFactor = true, m, k, factor }
}

// WithOPQRotation upgrades WithReranking's quantizer to optimized
// product quantization: a learned orthogonal rotation (Procrustes
// iterations) is applied before subspace quantization, cutting code
// distortion when coordinates are correlated. Costs one dim×dim
// rotation per encoded item and per query, read row by row from the
// transposed matrix: at dim 128 about 9 µs a query on a 2-core Xeon,
// more than the m=16, k=256 ADC table it feeds (about 1.8 µs). Requires
// WithReranking.
func WithOPQRotation() Option { return func(c *config) { c.opq = true } }

// WithoutAddWAL disables the write-ahead log when durability is enabled
// (EnableDurability / Recover): Adds are acknowledged without an fsync
// and are durable only once their segment file is written. Use it when
// ingest throughput matters more than the last partial memtable of
// Adds surviving a crash.
func WithoutAddWAL() Option { return func(c *config) { c.walOff = true } }

// searchConfig collects Search options.
type searchConfig struct {
	maxCandidates int
	maxBuckets    int
	earlyStop     bool
	radius        float64
	profile       bool
	tagMask       uint64
	filter        func(id int, meta uint64) bool
}

// SearchOption configures one Search call.
type SearchOption func(*searchConfig)

// configOf folds a call's options into its searchConfig.
func configOf(opts []SearchOption) searchConfig {
	var sc searchConfig
	for _, o := range opts {
		o(&sc)
	}
	return sc
}

// WithMaxCandidates bounds the number of items evaluated — the paper's
// N parameter and the main recall/latency knob. Zero (the default)
// means unbounded: the search degenerates to an exact (but slow) scan.
func WithMaxCandidates(n int) SearchOption { return func(c *searchConfig) { c.maxCandidates = n } }

// WithMaxBuckets bounds the number of buckets generated instead of (or
// in addition to) the candidate bound.
func WithMaxBuckets(n int) SearchOption { return func(c *searchConfig) { c.maxBuckets = n } }

// WithEarlyStop enables the QD lower-bound termination rule (§4.1 of
// the paper): probing stops once no unseen bucket can contain a closer
// item than the current k-th candidate. Only effective for QD querying
// methods (GQR, QR) on projection learners; it never changes results,
// only prunes work.
func WithEarlyStop() SearchOption { return func(c *searchConfig) { c.earlyStop = true } }

// WithRadius turns the search into a bounded-radius query: only
// neighbors within the given Euclidean distance are returned (still at
// most k of them). For QD querying methods on projection learners the
// §4.1 threshold rule additionally stops probing once no unseen bucket
// can contain an in-radius item, making the search exact without a
// candidate budget.
func WithRadius(r float64) SearchOption { return func(c *searchConfig) { c.radius = r } }

// WithTagMask keeps only items whose metadata word contains every bit
// of mask (meta&mask == mask). The test is pushed into the gather loop
// — an AND and a compare per gathered id, before any distance is
// computed — so it is the cheap path for tag-style predicates; use
// WithFilter for arbitrary ones. Items added without metadata have a
// zero word and match only the zero mask.
func WithTagMask(mask uint64) SearchOption { return func(c *searchConfig) { c.tagMask = mask } }

// WithFilter keeps only items the predicate accepts, given their id and
// metadata word (zero when the item has none). The predicate runs in
// the gather loop before evaluation — rejected items never cost a
// distance computation — and may be called from multiple goroutines
// when searches run concurrently, so it must be safe for concurrent
// use and should be cheap. Combine with WithTagMask: the mask test runs
// first.
func WithFilter(f func(id int, meta uint64) bool) SearchOption {
	return func(c *searchConfig) { c.filter = f }
}

// WithProfile enables per-stage timing in the stats returned by
// SearchWithStats: SearchStats.RetrievalTime and EvaluationTime split
// the query between deciding which buckets to probe and computing exact
// distances (the paper's §2.2 decomposition). Costs two clock reads per
// bucket, so it is off by default; the work counters (buckets,
// candidates) are always populated.
func WithProfile() SearchOption { return func(c *searchConfig) { c.profile = true } }
