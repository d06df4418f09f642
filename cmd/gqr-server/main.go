// Command gqr-server serves approximate nearest-neighbor queries over
// HTTP: it builds (or loads) a learned-hash index from an fvecs file
// and exposes the JSON API of internal/server, with Prometheus metrics
// on /metrics, a JSON snapshot on /statsz and opt-in pprof profiling.
//
// Usage:
//
//	gqr-server -base vectors.fvecs -addr :8080
//	gqr-server -base vectors.fvecs -load index.gqr -addr :8080 -pprof
//	gqr-server -base vectors.fvecs -trace-sample 100 -slow-query-ms 5
//
//	curl -s localhost:8080/stats
//	curl -s localhost:8080/metrics
//	curl -s localhost:8080/debug/querytrace
//	curl -s "localhost:8080/debug/querytrace?format=chrome" > trace.json  # open in Perfetto
//	curl -s -X POST localhost:8080/search \
//	     -d '{"query":[...], "k":10, "maxCandidates":2000, "includeStats":true}'
//	go tool pprof http://localhost:8080/debug/pprof/profile?seconds=10
//
// On SIGINT/SIGTERM the server drains in-flight requests (up to
// -shutdown-timeout) and logs a final metrics snapshot before exiting.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"gqr"
	"gqr/internal/dataset"
	"gqr/internal/server"
	"gqr/internal/vecmath"
)

// Connection deadlines. Without the last two a client that sends its
// headers and then stalls in the body, or holds an idle keep-alive
// connection, kept a goroutine and a descriptor for as long as it liked.
// There is no WriteTimeout: /debug/pprof/profile streams for as long as
// its caller asks.
const (
	readHeaderTimeout = 10 * time.Second
	// readTimeout bounds a whole request, body included: the largest
	// /batch body the handler accepts at d = 128 is 12 MiB.
	readTimeout = time.Minute
	idleTimeout = 2 * time.Minute
)

func main() {
	var (
		base        = flag.String("base", "", "fvecs file with base vectors (required)")
		addr        = flag.String("addr", ":8080", "listen address")
		algorithm   = flag.String("algorithm", "itq", "learner: itq|pcah|sh|kmh|lsh|ssh")
		method      = flag.String("method", "gqr", "querying method: gqr|qr|hr|ghr|mih")
		metric      = flag.String("metric", "euclidean", "metric: euclidean|angular")
		bits        = flag.Int("bits", 0, "code length (0 = log2(n/10) rule)")
		tables      = flag.Int("tables", 1, "hash tables")
		seed        = flag.Int64("seed", 0, "training seed")
		buildProcs  = flag.Int("build-procs", 0, "build worker bound (0 = GOMAXPROCS); the index is identical at any setting")
		loadIdx     = flag.String("load", "", "load a saved index instead of training")
		dataDir     = flag.String("data-dir", "", "durable data directory: Adds are crash-safe, and the server recovers from it on restart")
		walOn       = flag.Bool("wal", true, "with -data-dir, fsync a write-ahead log record before acknowledging each Add (disable for segment-only durability)")
		pprofOn     = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
		logJSON     = flag.Bool("log-json", false, "emit JSON log lines instead of text")
		drainWindow = flag.Duration("shutdown-timeout", 15*time.Second, "max time to drain in-flight requests on SIGINT/SIGTERM")
		traceSample = flag.Int("trace-sample", 0, "capture every n-th query into the flight recorder on /debug/querytrace (0 = off)")
		slowQueryMS = flag.Float64("slow-query-ms", 0, "always capture queries at or above this latency in milliseconds (0 = off)")
		traceBuf    = flag.Int("trace-buffer", 0, "flight-recorder ring capacity in traces (0 = default 64)")
	)
	flag.Parse()
	if *base == "" {
		fmt.Fprintln(os.Stderr, "gqr-server: -base is required")
		flag.Usage()
		os.Exit(2)
	}

	var handlerOpts slog.HandlerOptions
	var logger *slog.Logger
	if *logJSON {
		logger = slog.New(slog.NewJSONHandler(os.Stderr, &handlerOpts))
	} else {
		logger = slog.New(slog.NewTextHandler(os.Stderr, &handlerOpts))
	}
	slog.SetDefault(logger)

	vecs, dim, err := dataset.LoadFvecsFile(*base)
	if err != nil {
		logger.Error("loading base vectors", "error", err)
		os.Exit(1)
	}
	start := time.Now()
	traceOpts := []gqr.Option{
		gqr.WithTracing(*traceSample),
		gqr.WithSlowQueryThreshold(time.Duration(*slowQueryMS * float64(time.Millisecond))),
		gqr.WithTraceBuffer(*traceBuf),
	}
	durOpts := traceOpts
	if !*walOn {
		durOpts = append(append([]gqr.Option{}, durOpts...), gqr.WithoutAddWAL())
	}
	var ix *gqr.Index
	recovered := false
	if *dataDir != "" {
		if _, statErr := os.Stat(filepath.Join(*dataDir, "base.gqridx")); statErr == nil {
			ix, err = gqr.Recover(*dataDir, vecs, dim, durOpts...)
			recovered = err == nil
		}
	}
	if ix == nil && err == nil {
		if *loadIdx != "" {
			ix, err = gqr.LoadFile(*loadIdx, vecs, dim, traceOpts...)
		} else {
			buildOpts := append([]gqr.Option{
				gqr.WithAlgorithm(gqr.Algorithm(*algorithm)),
				gqr.WithQueryMethod(gqr.QueryMethod(*method)),
				gqr.WithMetric(gqr.Metric(*metric)),
				gqr.WithCodeLength(*bits),
				gqr.WithTables(*tables),
				gqr.WithSeed(*seed),
				gqr.WithBuildParallelism(*buildProcs)}, traceOpts...)
			ix, err = gqr.Build(vecs, dim, buildOpts...)
		}
	}
	if err != nil {
		logger.Error("building index", "error", err)
		os.Exit(1)
	}
	if *dataDir != "" && !recovered {
		if err := ix.EnableDurability(*dataDir, durOpts...); err != nil {
			logger.Error("enabling durability", "error", err)
			os.Exit(1)
		}
	}
	if *dataDir != "" {
		logger.Info("durability enabled", "dataDir", *dataDir, "wal", *walOn, "recovered", recovered)
	}
	st := ix.Stats()
	logger.Info("index ready",
		"items", st.Items, "live", st.LiveItems, "tombstones", st.Tombstones,
		"algorithm", st.Algorithm, "method", st.Method,
		"bits", st.CodeLength, "tables", st.Tables,
		"kernel", vecmath.Kernel(), // "go" on amd64: no AVX2, scalar distances
		"elapsed", time.Since(start).Round(time.Millisecond))
	if ix.TraceRecorder() != nil {
		logger.Info("query tracing enabled",
			"sampleEvery", *traceSample, "slowQueryMs", *slowQueryMS,
			"path", "/debug/querytrace")
	}

	opts := []server.Option{server.WithLogger(logger)}
	if *pprofOn {
		opts = append(opts, server.WithPprof())
		logger.Info("pprof enabled", "path", "/debug/pprof/")
	}
	h := server.New(ix, opts...)
	srv := &http.Server{
		Addr:              *addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() {
		logger.Info("listening", "addr", *addr)
		errCh <- srv.ListenAndServe()
	}()

	select {
	case err := <-errCh:
		// Listen failed before any signal (port in use, etc.).
		logger.Error("server failed", "error", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	stop()
	logger.Info("shutting down, draining in-flight requests", "timeout", *drainWindow)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainWindow)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		logger.Error("shutdown incomplete, closing", "error", err)
		srv.Close()
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Error("server error", "error", err)
	}
	// Close after the HTTP drain: no more Adds can arrive, so the final
	// memtable seals into a durable segment and the WAL hands off cleanly
	// (the next start replays nothing).
	if err := ix.Close(); err != nil {
		logger.Error("closing index", "error", err)
	}
	// The final snapshot gives operators the session totals even when
	// nothing scraped /metrics.
	snap, err := json.Marshal(h.Registry().Snapshot())
	if err != nil {
		logger.Error("final metrics snapshot failed", "error", err)
		return
	}
	logger.Info("final metrics snapshot", "metrics", string(snap))
}
