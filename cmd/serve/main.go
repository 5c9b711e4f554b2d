// Command serve runs the enrichment workflow as an HTTP service (the
// role the BIOTEX web application plays for the paper's step I,
// extended to all four steps).
//
// Usage:
//
//	serve -corpus data/corpus.json -ontology data/ontology.json \
//	      [-ontology-entry name=corpus.json,ontology.json ...] \
//	      [-addr :8080] [-addr-file path] [-workers N] [-shutdown-timeout 10s] \
//	      [-enrich-timeout 2m] [-metrics=true] [-pprof] \
//	      [-log-level info] [-max-body 8388608] \
//	      [-job-queue 16] [-job-workers 1] [-job-ttl 15m] \
//	      [-data-dir data/state] [-retain-segments 3] [-checkpoint-every 256]
//
// Multi-ontology hosting: -corpus/-ontology seed the default registry
// entry (every single-ontology route serves it); each repeatable
// -ontology-entry flag hosts an additional named ontology, addressable
// under /v1/ontologies/{name}/... and scored by POST /v1/recommend.
// With -data-dir, the default entry's durable state lives at the
// directory root (old data directories keep working) and each named
// entry gets its own WAL + segments under
// <data-dir>/ontologies/<name>/; ontologies created at runtime through
// POST /v1/ontologies are persisted the same way and revived on the
// next boot. The registry (internal/registry) opens every entry, the
// flagged ones, the revived ones and the runtime-created ones alike,
// and shuts each one down at exit; this command only hands it the
// seed files and the data directory.
//
// The server is configured with conservative read/write timeouts so a
// slow or stalled client cannot pin a connection forever, and shuts
// down gracefully on SIGINT/SIGTERM: in-flight requests get up to
// -shutdown-timeout to complete before the process exits.
// -enrich-timeout additionally deadlines each enrichment run —
// synchronous POST /v1/enrich (504 past it) and background job runs
// alike; a client that disconnects mid-run cancels a synchronous run
// either way.
//
// Durability: with -data-dir set, state survives restarts and crashes.
// Every ingested document batch is appended to a write-ahead log and
// fsynced before the request is acknowledged, and every enrichment
// apply is persisted as an immutable checksummed segment file keyed by
// snapshot epoch. On boot, if the data directory holds durable state,
// the server warm-restarts from it — loading the newest valid segment
// and replaying the WAL tail to the exact pre-crash epoch — and the
// -corpus/-ontology flags are only consulted on a cold (empty) data
// directory, where they seed epoch 1; an -ontology-entry's files
// likewise seed only its empty directory. -retain-segments bounds how
// many full snapshots are kept, and -checkpoint-every bounds boot-time
// replay by writing a full segment after that many ingest batches. A
// clean shutdown checkpoints every entry, so the next boot replays no
// WAL.
// Without -data-dir everything lives in RAM and dies with the process,
// as before.
//
// Ingestion is group-committed (internal/batch): concurrent POST
// /v1/documents requests coalesce per ontology into one corpus
// clone + incremental reindex + WAL record + fsync + epoch. A group is
// whatever arrived while the previous commit was in flight, so no
// request waits on a timer and concurrent writers share commits.
//
// Async jobs: POST /v1/jobs/enrich queues an enrichment run against
// the snapshot current at submission. -job-queue bounds how many may
// wait (429 past it), -job-workers how many run concurrently, and
// -job-ttl how long finished jobs stay pollable before they expire
// (negative retains forever). On SIGINT/SIGTERM running jobs are
// cancelled along with the HTTP drain. The server listens only once
// every entry is open, so GET /v1/ready answers 200 from the first
// request it serves.
//
// Observability: -metrics (on by default) serves the Prometheus
// exposition at GET /v1/metrics — per-endpoint request counts and
// latency histograms, job-subsystem gauges/counters, storage
// fsync/WAL/segment metrics when -data-dir is set, plus per-step
// pipeline durations once an enrichment has run. -pprof additionally
// mounts net/http/pprof under /debug/pprof/ (off by default: it is a
// profiling surface). -log-level gates the structured (log/slog)
// access log; "warn" or higher silences per-request lines.
//
// See internal/server for the endpoint list.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"bioenrich/internal/corpus"
	"bioenrich/internal/obs"
	"bioenrich/internal/ontology"
	"bioenrich/internal/registry"
	"bioenrich/internal/server"
	"bioenrich/internal/storage"
)

// entrySpec is one parsed -ontology-entry value.
type entrySpec struct {
	name, corpusPath, ontPath string
}

// entryFlags collects repeatable -ontology-entry flags of the form
// name=corpus.json,ontology.json.
type entryFlags []entrySpec

func (e *entryFlags) String() string {
	parts := make([]string, len(*e))
	for i, s := range *e {
		parts[i] = s.name + "=" + s.corpusPath + "," + s.ontPath
	}
	return strings.Join(parts, " ")
}

func (e *entryFlags) Set(v string) error {
	name, files, ok := strings.Cut(v, "=")
	if !ok {
		return fmt.Errorf("want name=corpus.json,ontology.json, got %q", v)
	}
	if !registry.ValidName(name) {
		return fmt.Errorf("invalid ontology name %q", name)
	}
	if name == server.DefaultOntology {
		return fmt.Errorf("%q is reserved for the -corpus/-ontology entry", name)
	}
	cp, op, ok := strings.Cut(files, ",")
	if !ok || cp == "" || op == "" {
		return fmt.Errorf("want name=corpus.json,ontology.json, got %q", v)
	}
	for _, prev := range *e {
		if prev.name == name {
			return fmt.Errorf("duplicate ontology entry %q", name)
		}
	}
	*e = append(*e, entrySpec{name: name, corpusPath: cp, ontPath: op})
	return nil
}

func main() {
	corpusPath := flag.String("corpus", "", "corpus JSON file (required unless -data-dir holds durable state)")
	ontPath := flag.String("ontology", "", "ontology JSON file (required unless -data-dir holds durable state)")
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "worker pool for /enrich steps II-IV (0 = all cores)")
	readTimeout := flag.Duration("read-timeout", 30*time.Second, "max duration for reading a request")
	writeTimeout := flag.Duration("write-timeout", 5*time.Minute, "max duration for writing a response (enrich runs are slow)")
	shutdownTimeout := flag.Duration("shutdown-timeout", 10*time.Second, "grace period for in-flight requests on SIGINT/SIGTERM")
	enrichTimeout := flag.Duration("enrich-timeout", 0, "deadline per POST /enrich run; exceeding it returns 504 (0 = bounded only by the client connection)")
	metrics := flag.Bool("metrics", true, "serve Prometheus metrics at GET /metrics")
	pprofFlag := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	logLevel := flag.String("log-level", "info", "log level: debug|info|warn|error (info logs every request)")
	maxBody := flag.Int64("max-body", 0, "POST body cap in bytes (0 = default 8 MiB, negative = unlimited)")
	jobQueue := flag.Int("job-queue", 0, "max queued async enrichment jobs; submissions past it get 429 (0 = default 16)")
	jobWorkers := flag.Int("job-workers", 0, "concurrent async job runners (0 = default 1)")
	jobTTL := flag.Duration("job-ttl", 0, "retention for finished jobs before GC (0 = default 15m, negative = forever)")
	dataDir := flag.String("data-dir", "", "durable state directory: WAL + snapshot segments; empty = in-memory only")
	retainSegments := flag.Int("retain-segments", 0, "full snapshot segments to keep in -data-dir (0 = default 3, negative = all)")
	checkpointEvery := flag.Int("checkpoint-every", 0, "write a full segment every N ingest batches, bounding boot replay (0 = default 256, negative = never automatically)")
	addrFile := flag.String("addr-file", "", "write the resolved listen address (host:port) to this file once listening; lets tooling discover a kernel-assigned :0 port without parsing logs")
	var entries entryFlags
	flag.Var(&entries, "ontology-entry", "additional hosted ontology as name=corpus.json,ontology.json (repeatable); served at /v1/ontologies/{name}")
	flag.Parse()

	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
	slog.SetDefault(logger)

	// The signal context exists before any I/O so boot-time recovery
	// runs (and is instrumented) under the process lifetime.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	opts := server.Options{
		Workers:       *workers,
		Pprof:         *pprofFlag,
		MaxBodyBytes:  *maxBody,
		AccessLog:     logger,
		EnrichTimeout: *enrichTimeout,
		JobQueue:      *jobQueue,
		JobWorkers:    *jobWorkers,
		JobTTL:        *jobTTL,
	}
	if *metrics {
		opts.Obs = obs.New()
	}

	// The registry opens every entry: it recovers each one's data
	// directory, or seeds it from the files on a cold start.
	reg, err := registry.New(ctx, server.DefaultOntology, fileSeed(*corpusPath, *ontPath), storage.DiskOptions{
		Dir:             *dataDir,
		Retain:          *retainSegments,
		CheckpointEvery: *checkpointEvery,
		Obs:             opts.Obs,
	})
	if err != nil {
		fatal(logger, "open ontology", err)
	}
	for _, e := range entries {
		if _, err := reg.Open(ctx, e.name, fileSeed(e.corpusPath, e.ontPath)); err != nil {
			fatal(logger, "open ontology", err)
		}
	}
	// Entries created at runtime by an earlier process left their
	// state under <data-dir>/ontologies/<name>; revive any the flags
	// did not name.
	if err := reg.OpenDiscovered(ctx); err != nil {
		fatal(logger, "open recovered ontologies", err)
	}
	def := reg.Default().Snapshot()
	c, o := def.Corpus, def.Ontology

	// Background jobs run under the signal context: SIGINT/SIGTERM
	// cancels running jobs alongside the HTTP drain.
	app := server.New(ctx, reg, opts)
	srv := &http.Server{
		Handler:           app.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       *readTimeout,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       2 * time.Minute,
	}

	// Listen explicitly (rather than ListenAndServe) so the resolved
	// address — including a kernel-assigned port for ":0" — lands in
	// the log, where restart tooling can read it.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(logger, "listen", err)
	}
	if *addrFile != "" {
		// Tooling (the perfbench benchmark) polls this file to find the
		// port when -addr was ":0".
		if err := os.WriteFile(*addrFile, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			fatal(logger, "write addr-file", err)
		}
	}

	errc := make(chan error, 1)
	go func() {
		logger.Info("serving",
			"docs", c.NumDocs(), "concepts", o.NumConcepts(),
			"addr", ln.Addr().String(), "workers", *workers,
			"metrics", *metrics, "pprof", *pprofFlag, "data_dir", *dataDir)
		errc <- srv.Serve(ln)
	}()

	select {
	case err := <-errc:
		// Serve never returns nil; any return here is fatal.
		fatal(logger, "serve", err)
	case <-ctx.Done():
		stop() // restore default signal handling: a second ^C kills immediately
		logger.Info("signal received, draining", "grace", *shutdownTimeout)
		shCtx, cancel := context.WithTimeout(context.Background(), *shutdownTimeout)
		defer cancel()
		if err := srv.Shutdown(shCtx); err != nil {
			fatal(logger, "shutdown", err)
		}
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal(logger, "serve", err)
		}
		app.Wait() // job runners exit once the signal context is cancelled
		// Each entry flushes its batcher, checkpoints its final
		// snapshot so the next boot replays no WAL, and closes its disk.
		if err := reg.Close(); err != nil {
			logger.Warn("shutdown checkpoint failed; next boot will replay the WAL", "err", err)
		}
		logger.Info("stopped cleanly")
	}
}

// fileSeed loads a cold-start corpus and ontology from files. Both
// paths are required: only a warm restart may go without them.
func fileSeed(corpusPath, ontPath string) registry.Seed {
	return func() (*corpus.Corpus, *ontology.Ontology, error) {
		if corpusPath == "" || ontPath == "" {
			return nil, nil, errors.New("-corpus and -ontology are required (no durable state to restart from)")
		}
		c, err := corpus.Load(corpusPath)
		if err != nil {
			return nil, nil, err
		}
		o, err := ontology.Load(ontPath)
		if err != nil {
			return nil, nil, err
		}
		return c, o, nil
	}
}

func fatal(logger *slog.Logger, what string, err error) {
	logger.Error(what, "err", err)
	os.Exit(1)
}
