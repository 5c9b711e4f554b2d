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
//	      [-data-dir data/state] [-wal-sync=true] \
//	      [-retain-segments 3] [-checkpoint-every 256]
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
// next boot.
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
// directory, where they seed epoch 1. -wal-sync=false trades the
// per-append fsync for throughput (a crash may then lose acknowledged
// ingests), -retain-segments bounds how many full snapshots are kept,
// and -checkpoint-every bounds boot-time replay by writing a full
// segment after that many ingest batches. Without -data-dir everything
// lives in RAM and dies with the process, as before.
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
// -job-ttl how long finished jobs stay pollable before garbage
// collection (negative retains forever). On SIGINT/SIGTERM running
// jobs are cancelled along with the HTTP drain.
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
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"bioenrich/internal/core"
	"bioenrich/internal/corpus"
	"bioenrich/internal/obs"
	"bioenrich/internal/ontology"
	"bioenrich/internal/registry"
	"bioenrich/internal/server"
	"bioenrich/internal/state"
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

// entryDataDir is where a named entry's durable state lives under the
// server's -data-dir (the default entry stays at the root, keeping old
// data directories valid).
func entryDataDir(dataDir, name string) string {
	return filepath.Join(dataDir, "ontologies", name)
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
	walSync := flag.Bool("wal-sync", true, "fsync the WAL on every ingest before acknowledging (false trades crash-safety for throughput)")
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

	// backends tracks every open disk backend by entry name so the
	// clean-shutdown path can checkpoint each one. Runtime-created
	// entries (POST /v1/ontologies) add to it concurrently, hence the
	// mutex.
	var backendsMu sync.Mutex
	backends := map[string]*storage.Disk{}
	defer func() {
		backendsMu.Lock()
		defer backendsMu.Unlock()
		for _, b := range backends {
			b.Close()
		}
	}()
	diskOptsFor := func(dir string) storage.DiskOptions {
		return storage.DiskOptions{
			Dir:             dir,
			DisableWALSync:  !*walSync,
			Retain:          *retainSegments,
			CheckpointEvery: *checkpointEvery,
			Obs:             opts.Obs,
		}
	}

	// openEntryStore boots one entry: with a data dir it recovers (warm)
	// or seeds (cold) the per-entry backend; without, it loads the seed
	// files into RAM. An empty seed path pair is only legal on a warm
	// restart.
	openEntryStore := func(name, dir, cPath, oPath string) *state.Store {
		if dir == "" {
			ec, eo := loadSeed(logger, cPath, oPath)
			return state.NewStore(ec, eo)
		}
		b, err := storage.OpenDisk(diskOptsFor(dir))
		if err != nil {
			fatal(logger, "open data dir for "+name, err)
		}
		snap, recovered, err := b.Recover(ctx)
		if err != nil {
			fatal(logger, "recover durable state for "+name, err)
		}
		var st *state.Store
		if recovered {
			st = state.NewStoreAt(snap.Corpus, snap.Ontology, snap.Epoch)
			logger.Info("warm restart from durable state", "ontology", name,
				"data_dir", dir, "epoch", snap.Epoch,
				"docs", snap.Corpus.NumDocs(), "concepts", snap.Ontology.NumConcepts())
		} else {
			ec, eo := loadSeed(logger, cPath, oPath)
			// Seed the directory so the next boot warm-restarts even if
			// no ingest ever lands.
			if err := b.Checkpoint(&state.Snapshot{Corpus: ec, Ontology: eo, Epoch: 1}); err != nil {
				fatal(logger, "seed data dir for "+name, err)
			}
			logger.Info("cold start: seeded data dir", "ontology", name, "data_dir", dir)
			st = state.NewStore(ec, eo)
		}
		st.SetDurable(b)
		backends[name] = b
		return st
	}

	defaultDir := ""
	if *dataDir != "" {
		defaultDir = *dataDir // default entry stays at the root: old data dirs keep working
	}
	reg, err := registry.New(server.DefaultOntology,
		openEntryStore(server.DefaultOntology, defaultDir, *corpusPath, *ontPath), opts.Obs)
	if err != nil {
		fatal(logger, "register ontology "+server.DefaultOntology, err)
	}
	named := map[string]bool{}
	for _, e := range entries {
		dir := ""
		if *dataDir != "" {
			dir = entryDataDir(*dataDir, e.name)
		}
		if _, err := reg.Add(e.name, openEntryStore(e.name, dir, e.corpusPath, e.ontPath)); err != nil {
			fatal(logger, "register ontology "+e.name, err)
		}
		named[e.name] = true
	}
	// Entries created at runtime in a previous process left their state
	// under <data-dir>/ontologies/<name>; revive any not named by flags.
	if *dataDir != "" {
		for _, name := range discoverEntries(logger, *dataDir) {
			if named[name] || name == server.DefaultOntology {
				continue
			}
			if _, err := reg.Add(name, openEntryStore(name, entryDataDir(*dataDir, name), "", "")); err != nil {
				fatal(logger, "register recovered ontology "+name, err)
			}
		}
		// Runtime-created ontologies get their own durable subdirectory,
		// seeded before the entry is visible to requests.
		opts.OpenEntryBackend = func(name string, seed *state.Snapshot) (state.Durable, error) {
			b, err := storage.OpenDisk(diskOptsFor(entryDataDir(*dataDir, name)))
			if err != nil {
				return nil, err
			}
			if err := b.Checkpoint(seed); err != nil {
				b.Close()
				return nil, err
			}
			backendsMu.Lock()
			backends[name] = b
			backendsMu.Unlock()
			return b, nil
		}
	}
	def := reg.Default().Snapshot()
	c, o := def.Corpus, def.Ontology

	cfg := core.DefaultConfig()
	cfg.Workers = *workers

	app := server.New(reg, cfg, opts)
	srv := &http.Server{
		Handler:           app.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       *readTimeout,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       2 * time.Minute,
	}

	// Job workers live under the signal context: SIGINT/SIGTERM cancels
	// running jobs alongside the HTTP drain.
	app.Start(ctx)

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
		app.Wait() // job workers exit after the signal context cancelled
		// Flush the ingest batchers before checkpointing: queued groups
		// land (or fail durably), and no group commit can race the
		// backend Close below.
		reg.Close()
		// A clean shutdown checkpoint per durable entry bounds the next
		// boot's WAL replay to zero records. A crash skips this — that
		// is what recovery is for.
		backendsMu.Lock()
		for name, b := range backends {
			entry, ok := app.Registry().Get(name)
			if !ok {
				continue
			}
			if err := b.Checkpoint(entry.Snapshot()); err != nil {
				logger.Warn("shutdown checkpoint failed; next boot will replay the WAL",
					"ontology", name, "err", err)
			}
		}
		backendsMu.Unlock()
		logger.Info("stopped cleanly")
	}
}

// discoverEntries lists the named-ontology state directories under
// dataDir/ontologies — entries created through POST /v1/ontologies by
// a previous process, which have durable state but no seed flags.
// Empty directories are skipped.
func discoverEntries(logger *slog.Logger, dataDir string) []string {
	root := filepath.Join(dataDir, "ontologies")
	des, err := os.ReadDir(root)
	if err != nil {
		if !errors.Is(err, os.ErrNotExist) {
			logger.Warn("scan ontology entries", "dir", root, "err", err)
		}
		return nil
	}
	var names []string
	for _, de := range des {
		if !de.IsDir() || !registry.ValidName(de.Name()) {
			continue
		}
		if inner, err := os.ReadDir(filepath.Join(root, de.Name())); err != nil || len(inner) == 0 {
			continue
		}
		names = append(names, de.Name())
	}
	sort.Strings(names)
	return names
}

// loadSeed loads the cold-start corpus and ontology from the -corpus
// and -ontology flags, which are mandatory in that case.
func loadSeed(logger *slog.Logger, corpusPath, ontPath string) (*corpus.Corpus, *ontology.Ontology) {
	if corpusPath == "" || ontPath == "" {
		fmt.Fprintln(os.Stderr, "serve: -corpus and -ontology are required (no durable state to restart from)")
		os.Exit(1)
	}
	c, err := corpus.Load(corpusPath)
	if err != nil {
		fatal(logger, "load corpus", err)
	}
	o, err := ontology.Load(ontPath)
	if err != nil {
		fatal(logger, "load ontology", err)
	}
	return c, o
}

func fatal(logger *slog.Logger, what string, err error) {
	logger.Error(what, "err", err)
	os.Exit(1)
}
