// Package server exposes the enrichment workflow over HTTP — the role
// the BIOTEX web application plays for the paper's step I, extended to
// all four steps. JSON in, JSON out, stdlib net/http only.
//
// # Serving model
//
// The server is snapshot-isolated (internal/state): every read handler
// grabs the current immutable (corpus, ontology, epoch) snapshot with
// one atomic pointer load and never takes a lock, so interactive reads
// stay fast no matter how long a mutation or enrichment run is in
// flight. Mutations build on clones and commit by epoch-checked
// compare-and-swap; an apply built on a superseded snapshot is
// rejected with 409 Conflict instead of clobbering the interleaved
// write. Heavyweight enrichment runs can be submitted as asynchronous
// jobs (internal/jobs) that run against the snapshot they were
// submitted under.
//
// # Endpoints (versioned, canonical)
//
//	GET    /v1/health                        liveness + current epoch
//	GET    /v1/ready                         readiness: 503 until boot completes
//	GET    /v1/version                       build identity (module/go/VCS revision)
//	GET    /v1/ontology/stats                concept/term/polysemy counts
//	GET    /v1/ontology/terms/{term}         concepts lexicalizing a term
//	GET    /v1/search?q=<query>&n=10         BM25 document search
//	GET    /v1/extract?measure=<m>&top=20    step I ranking
//	GET    /v1/senses?term=<t>&...           step III induction
//	GET    /v1/link?term=<t>&top=10          step IV proposals
//	POST   /v1/documents                     add documents (JSON array), reindex
//	POST   /v1/enrich                        synchronous steps I-IV; {"apply":true} commits
//	POST   /v1/jobs/enrich                   submit an async enrichment job (202)
//	GET    /v1/jobs                          list jobs (limit/page_token/status)
//	GET    /v1/jobs/{id}                     poll one job
//	DELETE /v1/jobs/{id}                     cancel a job
//	GET    /v1/relations?top=20              typed relations between ontology terms
//	POST   /v1/disambiguate                  {"term":..., "context":[...]} -> sense
//	POST   /v1/classify                      assign a document to concepts (cosine)
//	POST   /v1/recommend                     rank hosted ontologies for an input text
//	GET    /v1/ontologies                    list hosted ontologies
//	POST   /v1/ontologies                    register a new ontology (name+concepts+docs)
//	GET    /v1/ontologies/{name}             one entry's stats
//	GET    /v1/ontologies/{name}/search      /v1/search against that entry
//	POST   /v1/ontologies/{name}/documents   /v1/documents into that entry
//	POST   /v1/ontologies/{name}/classify    /v1/classify against that entry
//	GET    /v1/metrics                       Prometheus exposition (with Options.Obs)
//	       /debug/pprof/*                    net/http/pprof (with Options.Pprof)
//
// Each operation has exactly one handler, and it is entry-scoped: it
// serves the registry entry the {name} path segment names, or the
// default entry on a pattern without one (/v1/classify also takes the
// entry from the body's "ontology" field). /v1/search is therefore
// byte-for-byte /v1/ontologies/default/search. Read endpoints return
// the serving snapshot version in an X-Epoch response header so
// clients can pin epochs for read-decide-apply flows.
//
// Every pre-/v1 unversioned path remains mounted as a thin alias that
// serves the identical body plus "Deprecation: true" and a Sunset
// header carrying the announced removal date
// (/ontology/term?t=<term> aliases /v1/ontology/terms/{term}).
//
// Document ingestion (both /v1/documents forms) is group-committed:
// concurrent requests coalesce in a per-ontology micro-batcher
// (internal/batch) and land as one clone + one incremental reindex +
// one WAL record + one fsync + one epoch; each caller still gets its
// own response carrying the epoch that covers its documents. A
// retryable durability failure (disk full, backend closed) is reported
// as 503 with code "unavailable", never 500.
//
// Request bodies are decoded strictly: exactly one JSON value, nothing
// after it. Trailing garbage ("[]{}", "{}extra") is 400
// invalid_argument rather than silently ignored.
//
// Errors are a uniform envelope with a stable machine-readable code:
//
//	{"error":{"code":"invalid_argument|not_found|queue_full|conflict|
//	                  deadline_exceeded|cancelled|unavailable|internal",
//	          "message":"..."}}
//
// and every response carries an X-Request-ID header (generated per
// request, propagated from well-formed client values, attached to
// access-log lines and job records).
package server

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"bioenrich/internal/batch"
	"bioenrich/internal/buildinfo"
	"bioenrich/internal/classify"
	"bioenrich/internal/cluster"
	"bioenrich/internal/core"
	"bioenrich/internal/corpus"
	"bioenrich/internal/jobs"
	"bioenrich/internal/linkage"
	"bioenrich/internal/obs"
	"bioenrich/internal/ontology"
	"bioenrich/internal/registry"
	"bioenrich/internal/relext"
	"bioenrich/internal/senseind"
	"bioenrich/internal/state"
	"bioenrich/internal/termex"
)

// DefaultOntology names the registry entry cmd/serve seeds from
// -corpus/-ontology: the entry every pattern without a {name} segment
// serves.
const DefaultOntology = "default"

// DefaultMaxBodyBytes bounds POST request bodies unless
// Options.MaxBodyBytes overrides it. 8 MiB comfortably fits large
// document batches while keeping an abusive client from exhausting
// memory through an unbounded decode.
const DefaultMaxBodyBytes = 8 << 20

// Options is the server's operational (non-pipeline) configuration.
// The zero value is a plain, uninstrumented server.
type Options struct {
	// Obs enables metrics: per-endpoint request counters, latency
	// histograms, the in-flight gauge, pipeline metrics from /enrich
	// runs, job-subsystem metrics, and the GET /v1/metrics exposition
	// endpoint. nil disables all of it.
	Obs *obs.Registry
	// Pprof mounts net/http/pprof under /debug/pprof/ (opt-in: the
	// profiling surface should not be exposed by default).
	Pprof bool
	// MaxBodyBytes caps POST bodies; exceeding it yields 413. 0 means
	// DefaultMaxBodyBytes, negative disables the cap.
	MaxBodyBytes int64
	// AccessLog, when non-nil, receives one structured line per
	// request (method, path, status, bytes, duration, request id).
	AccessLog *slog.Logger
	// EnrichTimeout, when > 0, bounds each enrichment run — the
	// synchronous POST /v1/enrich (504 past it) and each background
	// job run (the job fails with deadline_exceeded). 0 leaves
	// synchronous runs bounded only by the client connection and job
	// runs by the Start context.
	EnrichTimeout time.Duration
	// JobQueue bounds how many submitted jobs may wait for a worker;
	// submissions past it get 429. 0 means the jobs package default
	// (16).
	JobQueue int
	// JobWorkers is the number of concurrent background job runners.
	// 0 means 1.
	JobWorkers int
	// JobTTL is how long finished jobs stay pollable before garbage
	// collection. 0 means the jobs package default (15 minutes);
	// negative retains forever and starts no sweeper.
	JobTTL time.Duration
	// OpenEntryBackend, when non-nil, provides a durability backend
	// for ontologies created at runtime through POST /v1/ontologies:
	// it is called with the new entry's name and seed snapshot before
	// the entry is registered, and the returned Durable gates every
	// publish of that entry (cmd/serve opens a per-ontology disk
	// backend under -data-dir). nil keeps runtime-created entries
	// in-memory.
	OpenEntryBackend func(name string, seed *state.Snapshot) (state.Durable, error)
}

// Server wires a registry of hosted ontologies to HTTP handlers: each
// handler resolves its entry, loads that entry's immutable snapshot
// (never blocking), and mutating handlers clone-and-commit through the
// entry store's epoch-checked compare-and-swap. The server itself
// holds no locks — biolint's handler-lock analyzer enforces that
// mechanically.
type Server struct {
	reg        *registry.Registry
	cfg        core.Config
	opts       Options
	jobs       *jobs.Manager
	classifier *classify.Classifier
	// ready flips once Start has launched the job subsystem — the last
	// boot step. GET /v1/ready serves 503 before that, 200 after;
	// liveness (GET /v1/health) answers either way. Load tooling polls
	// readiness instead of sleeping an arbitrary grace period.
	ready atomic.Bool
}

// New builds a server over a populated registry; the registry's
// default entry serves every pattern without a {name} segment. Each
// entry's store carries its own durability and boot epoch, and the
// registry its ingest batching, configured by whoever built it. cfg is
// the pipeline configuration (zero-valued fields fall back to the
// defaults when the enricher is built); opts the operational one.
func New(reg *registry.Registry, cfg core.Config, opts Options) *Server {
	return &Server{
		reg:  reg,
		cfg:  cfg,
		opts: opts,
		jobs: jobs.New(jobs.Options{
			Queue:   opts.JobQueue,
			Workers: opts.JobWorkers,
			TTL:     opts.JobTTL,
			Obs:     opts.Obs,
		}),
		classifier: classify.New(classify.Options{Obs: opts.Obs}),
	}
}

// Registry exposes the ontology registry to the embedding process —
// cmd/serve registers extra entries at boot and checkpoints every
// durable entry on clean shutdown.
func (s *Server) Registry() *registry.Registry { return s.reg }

// Start launches the async job workers under ctx and marks the server
// ready; cancelling ctx cancels running jobs and stops the workers.
// Job submissions before Start are rejected with 503 — read and
// synchronous endpoints work without it. Start is the boot barrier
// GET /v1/ready reports: cmd/serve calls it only after recovery and
// registry construction have completed, so a 200 from /v1/ready means
// the full surface (including job submission) is serving.
func (s *Server) Start(ctx context.Context) {
	s.jobs.Start(ctx)
	s.ready.Store(true)
}

// Wait blocks until the job workers have exited after the Start
// context was cancelled — the clean-shutdown hook for cmd/serve.
func (s *Server) Wait() { s.jobs.Wait() }

// route is one operation: its handler and every pattern serving it —
// the /v1 pattern, the /v1/ontologies/{name}/... form where one exists,
// and the deprecated unversioned alias where one exists (until
// LegacySunset). Every pattern is also the endpoint metric label.
type route struct {
	h                 http.HandlerFunc
	v1, named, legacy string
}

// routes is the server's route table. New operations are /v1-only.
func (s *Server) routes() []route {
	rs := []route{
		{s.handleHealth, "GET /v1/health", "", "GET /health"},
		{s.handleReady, "GET /v1/ready", "", ""},
		{s.handleVersion, "GET /v1/version", "", ""},
		{s.handleOntologyStats, "GET /v1/ontology/stats", "", "GET /ontology/stats"},
		{s.handleOntologyTerm, "GET /v1/ontology/terms/{term}", "", "GET /ontology/term"},
		{s.handleSearch, "GET /v1/search", "GET /v1/ontologies/{name}/search", "GET /search"},
		{s.handleExtract, "GET /v1/extract", "", "GET /extract"},
		{s.handleSenses, "GET /v1/senses", "", "GET /senses"},
		{s.handleLink, "GET /v1/link", "", "GET /link"},
		{s.handleDocuments, "POST /v1/documents", "POST /v1/ontologies/{name}/documents", "POST /documents"},
		{s.handleEnrich, "POST /v1/enrich", "", "POST /enrich"},
		{s.handleJobSubmit, "POST /v1/jobs/enrich", "", ""},
		{s.handleJobList, "GET /v1/jobs", "", ""},
		{s.handleJobGet, "GET /v1/jobs/{id}", "", ""},
		{s.handleJobCancel, "DELETE /v1/jobs/{id}", "", ""},
		{s.handleRelations, "GET /v1/relations", "", "GET /relations"},
		{s.handleDisambiguate, "POST /v1/disambiguate", "", "POST /disambiguate"},
		{s.handleClassify, "POST /v1/classify", "POST /v1/ontologies/{name}/classify", ""},
		{s.handleRecommend, "POST /v1/recommend", "", ""},
		{s.handleOntologiesList, "GET /v1/ontologies", "", ""},
		{s.handleOntologyCreate, "POST /v1/ontologies", "", ""},
		{s.handleOntologyGet, "GET /v1/ontologies/{name}", "", ""},
	}
	if s.opts.Obs != nil {
		// The exposition endpoint is instrumented like any other; the
		// counter increments after the scrape renders, so a scrape sees
		// every request before itself.
		rs = append(rs, route{s.opts.Obs.Handler().ServeHTTP, "GET /v1/metrics", "", "GET /metrics"})
	}
	return rs
}

// Handler returns the routing http.Handler. Every pattern is wrapped
// with per-endpoint instrumentation (when Options.Obs is set); the
// router as a whole with request-id assignment, the in-flight gauge
// and the access log.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	handle := func(pattern string, h http.HandlerFunc) {
		if pattern != "" {
			mux.Handle(pattern, instrument(s.opts.Obs, pattern, h))
		}
	}
	for _, rt := range s.routes() {
		handle(rt.v1, rt.h)
		handle(rt.named, rt.h)
		handle(rt.legacy, deprecated(rt.h))
	}
	if s.opts.Pprof {
		// No method restriction: the pprof tool POSTs to /symbol.
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return observe(s.opts.Obs, s.opts.AccessLog, withRequestID(mux))
}

// limitBody caps r.Body per Options.MaxBodyBytes; a decode past the
// cap fails with *http.MaxBytesError, which decodeStatus maps to 413.
func (s *Server) limitBody(w http.ResponseWriter, r *http.Request) {
	limit := s.opts.MaxBodyBytes
	if limit == 0 {
		limit = DefaultMaxBodyBytes
	}
	if limit > 0 {
		r.Body = http.MaxBytesReader(w, r.Body, limit)
	}
}

// decodeStatus maps a body-decode failure to its response status:
// 413 when the body blew the size cap, 400 otherwise.
func decodeStatus(err error) int {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// decodeStrict decodes exactly one JSON value from r into v. Unlike a
// bare json.Decoder.Decode — which stops at the end of the first value
// and silently ignores whatever follows — it requires the second read
// to hit io.EOF, so a body like `[...]garbage` or two concatenated
// JSON values is a client error instead of a half-honored request.
// Every /v1 handler that reads a body decodes through this.
func decodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	if err := dec.Decode(v); err != nil {
		return err
	}
	switch err := dec.Decode(new(json.RawMessage)); {
	case errors.Is(err, io.EOF):
		return nil
	case err != nil:
		return fmt.Errorf("trailing data after JSON value: %w", err)
	default:
		return fmt.Errorf("trailing data after JSON value")
	}
}

// writeJSON writes v with the given status. The body is encoded
// up-front so an encode failure can still be reported as a 500
// instead of a silently truncated 200 — once the first body byte is
// on the wire the status is unchangeable.
func writeJSON(w http.ResponseWriter, code int, v any) {
	buf, err := json.Marshal(v)
	if err != nil {
		slog.Error("server: response encode failed", "err", err)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		fmt.Fprintln(w, `{"error":{"code":"internal","message":"response encoding failed"}}`)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	buf = append(buf, '\n') // keep json.Encoder's trailing newline
	if _, err := w.Write(buf); err != nil {
		slog.Debug("server: response write failed", "err", err)
	}
}

// errorDetail is the machine-readable half of the error envelope.
type errorDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// errorEnvelope is the uniform error body:
// {"error":{"code":"...","message":"..."}}.
type errorEnvelope struct {
	Error errorDetail `json:"error"`
}

// codeForStatus maps a response status to its envelope code. The code
// set is part of the API contract; clients switch on it, not on
// message text.
func codeForStatus(status int) string {
	switch status {
	case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
		return "invalid_argument"
	case http.StatusNotFound:
		return "not_found"
	case http.StatusConflict:
		return "conflict"
	case http.StatusTooManyRequests:
		return "queue_full"
	case statusClientClosedRequest:
		return "cancelled"
	case http.StatusGatewayTimeout:
		return "deadline_exceeded"
	case http.StatusServiceUnavailable:
		return "unavailable"
	}
	return "internal"
}

// writeError reports an error in the uniform envelope, deriving the
// code from the status.
func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, errorEnvelope{errorDetail{Code: codeForStatus(code), Message: err.Error()}})
}

// intParam reads a non-negative integer query parameter, returning
// def when absent. A value that does not parse, or a negative one, is
// a client error (mapped to 400 by callers) — previously both were
// silently swallowed into the default, so ?n=abc and ?top=-5 behaved
// like omitting the parameter.
func intParam(r *http.Request, name string, def int) (int, error) {
	v := r.URL.Query().Get(name)
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("parameter %q: %q is not an integer", name, v)
	}
	if n < 0 {
		return 0, fmt.Errorf("parameter %q: must be non-negative, got %d", name, n)
	}
	return n, nil
}

// resolveEntry maps a registry lookup failure to 404. An empty name —
// the {name} path value of a pattern without that segment — resolves
// to the default entry.
func (s *Server) resolveEntry(w http.ResponseWriter, name string) (*registry.Entry, bool) {
	entry, err := s.reg.Resolve(name)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return nil, false
	}
	return entry, true
}

// entrySnapshot loads the current snapshot of the entry r addresses:
// one atomic map load plus one atomic pointer load, no lock, never
// blocks.
func (s *Server) entrySnapshot(w http.ResponseWriter, r *http.Request) (*state.Snapshot, bool) {
	entry, ok := s.resolveEntry(w, r.PathValue("name"))
	if !ok {
		return nil, false
	}
	return entry.Snapshot(), true
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	snap, ok := s.entrySnapshot(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"docs":     snap.Corpus.NumDocs(),
		"concepts": snap.Ontology.NumConcepts(),
		"epoch":    snap.Epoch,
	})
}

// handleReady is readiness, distinct from liveness: 503 "unavailable"
// until Start has run (recovery and registry boot complete, job
// subsystem accepting submissions), then 200 with the serving epoch
// and hosted-entry count. Liveness (/v1/health) stays 200 throughout
// boot — a booting process is alive but not yet ready for traffic.
func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	if !s.ready.Load() {
		writeError(w, http.StatusServiceUnavailable,
			fmt.Errorf("booting: job subsystem not started"))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":  "ready",
		"epoch":   s.reg.Default().Snapshot().Epoch,
		"entries": s.reg.Len(),
	})
}

// handleVersion serves the binary's build identity (GET /v1/version):
// module version, Go toolchain, VCS revision — read from the embedded
// build-info record, so what answers is provably what was built.
func (s *Server) handleVersion(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, buildinfo.Read())
}

func (s *Server) handleOntologyStats(w http.ResponseWriter, r *http.Request) {
	snap, ok := s.entrySnapshot(w, r)
	if !ok {
		return
	}
	o := snap.Ontology
	stats := o.PolysemyStats()
	setEpochHeader(w, snap.Epoch)
	writeJSON(w, http.StatusOK, map[string]any{
		"name":      o.Name,
		"concepts":  o.NumConcepts(),
		"terms":     o.NumTerms(),
		"polysemy":  stats,
		"polysemic": len(o.PolysemicTerms()),
		"epoch":     snap.Epoch,
	})
}

// handleOntologyTerm serves GET /v1/ontology/terms/{term} and its
// deprecated query form GET /ontology/term?t=<term>. ServeMux never
// matches {term} against an empty segment, so only the query form can
// arrive without a term.
func (s *Server) handleOntologyTerm(w http.ResponseWriter, r *http.Request) {
	term := r.PathValue("term")
	if term == "" {
		term = r.URL.Query().Get("t")
	}
	if term == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("missing ?t=<term>"))
		return
	}
	snap, ok := s.entrySnapshot(w, r)
	if !ok {
		return
	}
	o := snap.Ontology
	setEpochHeader(w, snap.Epoch)
	ids := o.ConceptsForTerm(term)
	if len(ids) == 0 {
		writeError(w, http.StatusNotFound, fmt.Errorf("term %q not in ontology", term))
		return
	}
	type conceptView struct {
		ID        ontology.ConceptID   `json:"id"`
		Preferred string               `json:"preferred"`
		Synonyms  []string             `json:"synonyms"`
		Parents   []ontology.ConceptID `json:"parents"`
		Children  []ontology.ConceptID `json:"children"`
	}
	// Pre-sized so zero renderable concepts still encodes as [], never
	// null — clients iterate the field unconditionally.
	out := make([]conceptView, 0, len(ids))
	for _, id := range ids {
		c := o.Concept(id)
		if c == nil {
			continue
		}
		out = append(out, conceptView{
			ID: id, Preferred: c.Preferred, Synonyms: c.Synonyms,
			Parents: c.Parents, Children: c.Children,
		})
	}
	writeJSON(w, http.StatusOK, map[string]any{"term": term, "concepts": out})
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	snap, ok := s.entrySnapshot(w, r)
	if !ok {
		return
	}
	q := r.URL.Query().Get("q")
	if q == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("missing ?q=<query>"))
		return
	}
	n, err := intParam(r, "n", 10)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	hits := snap.Corpus.Search(q, n)
	if hits == nil {
		hits = []corpus.SearchHit{}
	}
	setEpochHeader(w, snap.Epoch)
	writeJSON(w, http.StatusOK, hits)
}

func (s *Server) handleExtract(w http.ResponseWriter, r *http.Request) {
	measure := termex.Measure(r.URL.Query().Get("measure"))
	if measure == "" {
		measure = termex.LIDF
	}
	top, err := intParam(r, "top", 20)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	snap, ok := s.entrySnapshot(w, r)
	if !ok {
		return
	}
	ext := termex.NewExtractor(snap.Corpus)
	ext.LearnPatterns(snap.Ontology.Terms())
	ranked, err := ext.Rank(measure, top)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if ranked == nil {
		ranked = []termex.ScoredTerm{}
	}
	writeJSON(w, http.StatusOK, ranked)
}

func (s *Server) handleSenses(w http.ResponseWriter, r *http.Request) {
	term := r.URL.Query().Get("term")
	if term == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("missing ?term="))
		return
	}
	in := senseind.New()
	if v := r.URL.Query().Get("algorithm"); v != "" {
		in.Algorithm = cluster.Algorithm(v)
	}
	if v := r.URL.Query().Get("index"); v != "" {
		in.Index = cluster.Index(v)
	}
	if v := r.URL.Query().Get("rep"); v != "" {
		in.Representation = senseind.Representation(v)
	}
	polysemic := r.URL.Query().Get("monosemic") == ""
	snap, ok := s.entrySnapshot(w, r)
	if !ok {
		return
	}
	res, err := in.InduceContext(r.Context(), snap.Corpus, term, polysemic)
	if err != nil {
		if r.Context().Err() != nil {
			writeError(w, runStatus(err), err)
			return
		}
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) handleLink(w http.ResponseWriter, r *http.Request) {
	term := r.URL.Query().Get("term")
	if term == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("missing ?term="))
		return
	}
	top, err := intParam(r, "top", 10)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	snap, ok := s.entrySnapshot(w, r)
	if !ok {
		return
	}
	props, err := linkage.New(snap.Corpus, snap.Ontology, linkage.DefaultOptions()).ProposeContext(r.Context(), term, top)
	if err != nil {
		if r.Context().Err() != nil {
			writeError(w, runStatus(err), err)
			return
		}
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if props == nil {
		props = []linkage.Proposal{}
	}
	writeJSON(w, http.StatusOK, props)
}

// ingestStatus maps an ingest failure to its response status. The
// distinction that matters operationally: a durability rejection
// (state.ErrUnavailable — disk full, fsync failure, backend shut down)
// and a closing batcher are retryable server conditions, 503, while a
// programmer error stays 500. Cancellation statuses mirror runStatus.
func ingestStatus(err error) int {
	switch {
	case errors.Is(err, state.ErrUnavailable), errors.Is(err, batch.ErrClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return statusClientClosedRequest
	}
	return http.StatusInternalServerError
}

// handleDocuments appends a document batch to the request's entry
// (POST /v1/documents, POST /v1/ontologies/{name}/documents). The
// batch is validated up front (no empty batch, no document with
// neither title nor text) so rejected requests never reach the
// serialized write path, then handed to the entry's group-commit
// batcher: concurrent requests coalesce into one clone + one
// incremental reindex + one WAL record + one fsync + one epoch, and
// this caller blocks until the group containing its documents is
// durable and published (or failed, with nothing published). The
// response carries the committed epoch, which covers this request's
// documents even when the group was shared.
func (s *Server) handleDocuments(w http.ResponseWriter, r *http.Request) {
	entry, ok := s.resolveEntry(w, r.PathValue("name"))
	if !ok {
		return
	}
	s.limitBody(w, r)
	var docs []corpus.Document
	if err := decodeStrict(r.Body, &docs); err != nil {
		writeError(w, decodeStatus(err), fmt.Errorf("decode documents: %w", err))
		return
	}
	if len(docs) == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("no documents"))
		return
	}
	for i, d := range docs {
		if strings.TrimSpace(d.Title) == "" && strings.TrimSpace(d.Text) == "" {
			writeError(w, http.StatusBadRequest,
				fmt.Errorf("document %d (id %q): empty title and text", i, d.ID))
			return
		}
	}
	next, err := entry.Ingest(r.Context(), docs)
	if err != nil {
		writeError(w, ingestStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"docs": next.Corpus.NumDocs(), "epoch": next.Epoch})
}

// handleRelations extracts typed relations between ontology terms
// (GET /v1/relations?top=20) — the future-work extension over HTTP.
func (s *Server) handleRelations(w http.ResponseWriter, r *http.Request) {
	top, err := intParam(r, "top", 20)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	snap, ok := s.entrySnapshot(w, r)
	if !ok {
		return
	}
	rels := relext.NewExtractor(snap.Ontology.Terms(), snap.Corpus.Lang()).Extract(snap.Corpus)
	if top > 0 && top < len(rels) {
		rels = rels[:top]
	}
	if rels == nil {
		rels = []relext.Relation{}
	}
	writeJSON(w, http.StatusOK, rels)
}

// disambiguateRequest is the POST /v1/disambiguate body: induce the
// term's senses from the corpus, then assign the provided context.
type disambiguateRequest struct {
	Term    string   `json:"term"`
	Context []string `json:"context"`
}

func (s *Server) handleDisambiguate(w http.ResponseWriter, r *http.Request) {
	s.limitBody(w, r)
	var req disambiguateRequest
	if err := decodeStrict(r.Body, &req); err != nil {
		writeError(w, decodeStatus(err), fmt.Errorf("decode request: %w", err))
		return
	}
	if req.Term == "" || len(req.Context) == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("term and context are required"))
		return
	}
	snap, ok := s.entrySnapshot(w, r)
	if !ok {
		return
	}
	in := senseind.New()
	res, err := in.InduceContext(r.Context(), snap.Corpus, req.Term, true)
	if err != nil {
		if r.Context().Err() != nil {
			writeError(w, runStatus(err), err)
			return
		}
		writeError(w, http.StatusBadRequest, err)
		return
	}
	d, err := senseind.NewDisambiguator(res, in.Representation)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	sense, sim := d.Disambiguate(req.Context)
	writeJSON(w, http.StatusOK, map[string]any{
		"term":       req.Term,
		"senses":     res.K,
		"sense":      sense,
		"similarity": sim,
		"features":   res.Senses[sense].Features,
	})
}

// enrichRequest is the POST /v1/enrich and POST /v1/jobs/enrich body.
// Workers, when > 0, bounds the per-request worker pool for steps
// II–IV; 0 inherits the server's configured pool (default: all
// cores). Epoch, when > 0, pins the run to a snapshot version: if the
// store has moved past it the request is rejected with 409 up front —
// optimistic concurrency for clients that read, decide, then apply.
type enrichRequest struct {
	Top     int    `json:"top"`
	Apply   bool   `json:"apply"`
	Workers int    `json:"workers"`
	Epoch   uint64 `json:"epoch"`
}

// statusClientClosedRequest is nginx's non-standard "client closed
// request" status. The disconnected client never sees it, but the
// access log and the status-labelled request counter distinguish
// abandoned runs from server faults.
const statusClientClosedRequest = 499

// runStatus maps a pipeline error to its response status: 409 when a
// commit lost the epoch race, 503 when the durability layer rejected
// the publish (retryable, nothing committed), 504 when the run
// outlived Options.EnrichTimeout, 499 when the client went away
// (request context cancelled), 500 otherwise.
func runStatus(err error) int {
	switch {
	case errors.Is(err, state.ErrStale):
		return http.StatusConflict
	case errors.Is(err, state.ErrUnavailable):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return statusClientClosedRequest
	}
	return http.StatusInternalServerError
}

// pinEnrich reads and validates an enrichRequest body (shared by the
// synchronous and job submission endpoints) and pins the run to the
// current snapshot of the request's entry. An empty body means "run
// with defaults". Decoding instead of guarding on r.ContentLength != 0
// handles chunked requests too: their ContentLength is -1, and a
// length guard would turn an empty chunked body into a spurious 400 on
// io.EOF. An epoch pin the entry has moved past is 409 before any work
// runs.
func (s *Server) pinEnrich(w http.ResponseWriter, r *http.Request) (*registry.Entry, *state.Snapshot, enrichRequest, bool) {
	s.limitBody(w, r)
	var req enrichRequest
	if err := decodeStrict(r.Body, &req); err != nil && !errors.Is(err, io.EOF) {
		writeError(w, decodeStatus(err), fmt.Errorf("decode request: %w", err))
		return nil, nil, req, false
	}
	if req.Top < 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("top: must be non-negative, got %d", req.Top))
		return nil, nil, req, false
	}
	if req.Workers < 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("workers: must be non-negative, got %d", req.Workers))
		return nil, nil, req, false
	}
	if req.Top == 0 {
		req.Top = 10
	}
	entry, ok := s.resolveEntry(w, r.PathValue("name"))
	if !ok {
		return nil, nil, req, false
	}
	snap := entry.Snapshot()
	if req.Epoch != 0 && req.Epoch != snap.Epoch {
		writeError(w, http.StatusConflict,
			fmt.Errorf("requested epoch %d is stale: store at epoch %d", req.Epoch, snap.Epoch))
		return nil, nil, req, false
	}
	return entry, snap, req, true
}

// runEnrich executes steps I–IV against snap, bounded by
// Options.EnrichTimeout, and with Apply set commits the enriched
// ontology to entry — the entry snap came from — through the
// epoch-checked CAS. Synchronous runs and job runs alike go through
// here. The pipeline holds no lock at any point: it reads the
// immutable snapshot, applies onto a clone, and only the pointer swap
// inside Commit is serialized. A commit built on a superseded snapshot
// returns state.ErrStale with nothing mutated.
func (s *Server) runEnrich(ctx context.Context, entry *registry.Entry, snap *state.Snapshot, req enrichRequest) (map[string]any, error) {
	if s.opts.EnrichTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.opts.EnrichTimeout)
		defer cancel()
	}
	cfg := s.cfg
	cfg.TopCandidates = req.Top
	if req.Workers > 0 {
		cfg.Workers = req.Workers
	}
	if cfg.Obs == nil {
		cfg.Obs = s.opts.Obs // pipeline spans and pool metrics land in /v1/metrics
	}
	enricher := core.NewEnricher(snap.Corpus, snap.Ontology, cfg)
	report, err := enricher.RunContext(ctx)
	if err != nil {
		return nil, err
	}
	if report.Candidates == nil {
		report.Candidates = []core.Candidate{}
	}
	resp := map[string]any{"report": report, "epoch": snap.Epoch}
	if !req.Apply {
		return resp, nil
	}
	// A cancellation that lands between Run returning and Apply
	// starting must still apply nothing.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Apply onto a clone; the served snapshot stays untouched until
	// (and unless) the commit wins the epoch check.
	clone := snap.Ontology.Clone()
	applied, err := core.NewEnricher(snap.Corpus, clone, cfg).Apply(report, core.DefaultPolicy())
	if err != nil {
		return nil, err
	}
	next, err := entry.Store.Commit(snap, snap.Corpus, clone)
	if err != nil {
		return nil, err
	}
	if applied == nil {
		applied = []core.Applied{}
	}
	resp["applied"] = applied
	resp["terms"] = clone.NumTerms()
	resp["epoch"] = next.Epoch
	return resp, nil
}

func (s *Server) handleEnrich(w http.ResponseWriter, r *http.Request) {
	entry, snap, req, ok := s.pinEnrich(w, r)
	if !ok {
		return
	}
	// The run lives at most as long as the request: a disconnected
	// client cancels it.
	resp, err := s.runEnrich(r.Context(), entry, snap, req)
	if err != nil {
		writeError(w, runStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// jobPayload is the wire form of one job.
type jobPayload struct {
	ID        string       `json:"id"`
	Kind      string       `json:"kind"`
	Status    jobs.Status  `json:"status"`
	RequestID string       `json:"request_id,omitempty"`
	Epoch     uint64       `json:"epoch"`
	Created   time.Time    `json:"created"`
	Started   *time.Time   `json:"started,omitempty"`
	Finished  *time.Time   `json:"finished,omitempty"`
	Result    any          `json:"result,omitempty"`
	Error     *errorDetail `json:"error,omitempty"`
}

// jobErrCode classifies a failed job's error into the envelope code
// set: a lost epoch race is conflict, a durability rejection
// unavailable (retryable), a timed-out run deadline_exceeded, a
// cancelled run cancelled, anything else internal.
func jobErrCode(err error) string {
	switch {
	case errors.Is(err, state.ErrStale):
		return "conflict"
	case errors.Is(err, state.ErrUnavailable):
		return "unavailable"
	case errors.Is(err, context.DeadlineExceeded):
		return "deadline_exceeded"
	case errors.Is(err, context.Canceled):
		return "cancelled"
	}
	return "internal"
}

func jobView(j jobs.Job) jobPayload {
	p := jobPayload{
		ID:        j.ID,
		Kind:      j.Kind,
		Status:    j.Status,
		RequestID: j.RequestID,
		Epoch:     j.Epoch,
		Created:   j.Created,
		Result:    j.Result,
	}
	if !j.Started.IsZero() {
		t := j.Started
		p.Started = &t
	}
	if !j.Finished.IsZero() {
		t := j.Finished
		p.Finished = &t
	}
	if j.Err != nil {
		p.Error = &errorDetail{Code: jobErrCode(j.Err), Message: j.Err.Error()}
	}
	return p
}

// handleJobSubmit enqueues an enrichment run (POST /v1/jobs/enrich).
// The job runs against the snapshot current at submission — reads are
// never blocked by it, and an apply whose snapshot is superseded
// before commit fails with the conflict code rather than clobbering
// the interleaved write.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	entry, snap, req, ok := s.pinEnrich(w, r)
	if !ok {
		return
	}
	job, ok := s.submitEnrich(w, r, snap.Epoch, func(ctx context.Context) (any, error) {
		return s.runEnrich(ctx, entry, snap, req)
	})
	if ok {
		writeJSON(w, http.StatusAccepted, jobView(job))
	}
}

// submitEnrich queues run as an enrichment job pinned at epoch and
// points the Location header at it — the one submit path of POST
// /v1/jobs/enrich and recommend-routed jobs. A refusal is written
// here: 429 when the queue is full, 503 before Start.
//
// A finished job keeps its result encoded (json.RawMessage), not the
// live value: a *core.Report holds every sense's full centroids, which
// the wire never shows, for as long as the job's TTL. writeJSON's
// json.Marshal compacts the RawMessage with the same HTML escaping,
// so the job bodies are byte-identical to encoding the value there.
func (s *Server) submitEnrich(w http.ResponseWriter, r *http.Request, epoch uint64, run jobs.Fn) (jobs.Job, bool) {
	job, err := s.jobs.Submit("enrich", requestID(r.Context()), epoch, func(ctx context.Context) (any, error) {
		res, err := run(ctx)
		if err != nil {
			return nil, err
		}
		b, err := json.Marshal(res)
		if err != nil {
			return nil, err
		}
		return json.RawMessage(b), nil
	})
	switch {
	case errors.Is(err, jobs.ErrQueueFull):
		writeError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, jobs.ErrNotStarted):
		writeError(w, http.StatusServiceUnavailable, err)
	case err != nil:
		writeError(w, http.StatusInternalServerError, err)
	default:
		w.Header().Set("Location", "/v1/jobs/"+job.ID)
		return job, true
	}
	return job, false
}

// DefaultJobPageLimit bounds a GET /v1/jobs page when the client sends
// no ?limit=; MaxJobPageLimit caps what a client may request. Bounded
// pages keep job polling O(page) under load however many jobs a soak
// run has accumulated.
const (
	DefaultJobPageLimit = 100
	MaxJobPageLimit     = 1000
)

// jobPageTokenPrefix versions the page-token format. The token is
// opaque to clients (base64url) but deliberately simple inside: a
// cursor in the job-ID space, which is stable across epoch swaps,
// job completions and TTL sweeps — none of those renumber jobs.
const jobPageTokenPrefix = "jobs-v1:"

// encodeJobPageToken renders the "resume after this job ID" cursor.
func encodeJobPageToken(afterID string) string {
	return base64.RawURLEncoding.EncodeToString([]byte(jobPageTokenPrefix + afterID))
}

// decodeJobPageToken validates and unwraps a client-supplied
// page_token. Anything that is not a well-formed token of the current
// version is a client error (400 invalid_argument) — not silently
// treated as "start over", which would make a corrupted poller loop
// forever over page one.
func decodeJobPageToken(tok string) (string, error) {
	raw, err := base64.RawURLEncoding.DecodeString(tok)
	if err != nil {
		return "", fmt.Errorf("page_token: not a valid token")
	}
	after, ok := strings.CutPrefix(string(raw), jobPageTokenPrefix)
	if !ok || after == "" {
		return "", fmt.Errorf("page_token: not a valid token")
	}
	return after, nil
}

// handleJobList lists jobs with deterministic pagination and
// filtering (GET /v1/jobs?limit=&page_token=&status=). Jobs are
// ordered by ID (== submission order); the next_page_token field is
// present exactly when more matching jobs remain. The cursor is a
// position in the ID space, so walking pages while the server commits
// epochs, finishes jobs or GCs expired ones never skips or repeats a
// retained job.
func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	limit, err := intParam(r, "limit", DefaultJobPageLimit)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if limit == 0 || limit > MaxJobPageLimit {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("parameter \"limit\": must be between 1 and %d", MaxJobPageLimit))
		return
	}
	status := jobs.Status(r.URL.Query().Get("status"))
	if status != "" && !jobs.ValidStatus(status) {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("parameter \"status\": unknown status %q", status))
		return
	}
	after := ""
	if tok := r.URL.Query().Get("page_token"); tok != "" {
		after, err = decodeJobPageToken(tok)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
	}
	list, more := s.jobs.Page(after, limit, status)
	views := make([]jobPayload, 0, len(list))
	for _, j := range list {
		views = append(views, jobView(j))
	}
	resp := map[string]any{"jobs": views}
	if more {
		resp["next_page_token"] = encodeJobPageToken(list[len(list)-1].ID)
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.jobs.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("job %q not found", id))
		return
	}
	writeJSON(w, http.StatusOK, jobView(j))
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, err := s.jobs.Cancel(id)
	switch {
	case errors.Is(err, jobs.ErrNotFound):
		writeError(w, http.StatusNotFound, fmt.Errorf("job %q not found", id))
		return
	case errors.Is(err, jobs.ErrFinished):
		writeError(w, http.StatusConflict, fmt.Errorf("job %q already finished (%s)", id, j.Status))
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, jobView(j))
}
