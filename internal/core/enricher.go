// Package core assembles the paper's four-step workflow into one
// pipeline — the library's primary entry point. Given a text corpus
// and an existing biomedical ontology, the Enricher
//
//	I.   extracts ranked candidate terms (package termex),
//	II.  predicts which candidates are polysemic (package polysemy),
//	III. induces each candidate's sense(s) (package senseind),
//	IV.  proposes where each candidate belongs in the ontology
//	     (package linkage),
//
// and can finally apply accepted proposals, mutating the ontology.
package core

import (
	"context"
	"fmt"
	"log/slog"
	"runtime"
	"strconv"
	"sync"
	"time"

	"bioenrich/internal/corpus"
	"bioenrich/internal/linkage"
	"bioenrich/internal/ml"
	"bioenrich/internal/obs"
	"bioenrich/internal/ontology"
	"bioenrich/internal/polysemy"
	"bioenrich/internal/relext"
	"bioenrich/internal/senseind"
	"bioenrich/internal/termex"
)

// Config holds the settings callers vary. The paper's other choices
// are fixed: a random forest over all 23 features (step II), direct
// clustering with the f_k index on bag-of-words seeded per candidate
// (step III), and cosine linkage with father/son expansion proposing
// topPositions positions (step IV). The ablations over those choices
// run through internal/experiments.
type Config struct {
	Measure termex.Measure // step I ranking measure (default LIDF)
	// TopCandidates is how many new candidates steps II–IV carry; it
	// also bounds how many already-known ontology terms the report
	// records alongside them.
	TopCandidates int

	// Workers bounds the pool that runs steps II–IV across candidates
	// (each candidate is independent, so they parallelize cleanly).
	// 0 means runtime.GOMAXPROCS(0). Output is deterministic
	// regardless of Workers: every candidate clusters with its own
	// derived seed (baseSeed + report index) and results land in rank
	// order.
	Workers int

	// ExtractRelations enables the future-work extension: after step
	// IV proposes positions, typed relations between the candidate and
	// its proposed anchors are read from the corpus.
	ExtractRelations bool

	// Log, when non-nil, receives structured progress events from Run,
	// TrainPolysemy and RunRounds.
	Log *slog.Logger

	// Obs, when non-nil, receives pipeline metrics and spans: one span
	// per step I–IV per Run (steps II–IV accumulate per-candidate busy
	// time across workers), worker-pool queued/active/busy metrics, and
	// the linkage context-vector cache hit/miss counters. nil — the
	// default — disables instrumentation; the report is identical
	// either way.
	Obs *obs.Registry
}

// DefaultConfig mirrors the paper's run: LIDF-value ranking and 20
// candidates.
func DefaultConfig() Config {
	return Config{Measure: termex.LIDF, TopCandidates: 20}
}

const (
	// topPositions is how many position proposals step IV keeps per
	// candidate.
	topPositions = 10
	// baseSeed is the paper's clustering seed: the candidate in report
	// slot i clusters with baseSeed + i.
	baseSeed = 1
	// synonymCosine: a candidate whose best proposal scores at or
	// above this cosine is attached as a synonym of that concept;
	// below it, a new child concept of the proposal's concept is
	// created. Strong context identity (like "corneal injury" vs
	// "corneal injuries") means synonymy; weaker but real similarity
	// means a nearby new concept.
	synonymCosine = 0.40
	// minCosine: proposals below this are not applied at all.
	minCosine = 0.15
)

// Candidate is the full per-term outcome of the pipeline.
type Candidate struct {
	Term      string
	Score     float64 // step I ranking score
	Known     bool    // already present in the ontology (skipped downstream)
	Polysemic bool
	Senses    *senseind.Result   // nil for known terms
	Positions []linkage.Proposal // nil when linkage found no anchor
	// Relations holds typed relations between this candidate and its
	// proposed anchors (only with Config.ExtractRelations).
	Relations []relext.Relation
}

// Report is the outcome of one enrichment run.
type Report struct {
	Measure    termex.Measure
	Candidates []Candidate
}

// Enricher runs the workflow against one corpus and ontology.
type Enricher struct {
	cfg      Config
	c        *corpus.Corpus
	o        *ontology.Ontology
	detector *polysemy.Detector
}

// withDefaults fills a zero Measure or TopCandidates from
// DefaultConfig, leaving the other fields as given.
func (c Config) withDefaults() Config {
	def := DefaultConfig()
	if c.Measure == "" {
		c.Measure = def.Measure
	}
	if c.TopCandidates == 0 {
		c.TopCandidates = def.TopCandidates
	}
	return c
}

// workers resolves Config.Workers to an effective pool size.
func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// NewEnricher builds an enricher. The ontology is not copied; Apply
// mutates it. A zero Measure or TopCandidates is filled from
// DefaultConfig.
func NewEnricher(c *corpus.Corpus, o *ontology.Ontology, cfg Config) *Enricher {
	return &Enricher{cfg: cfg.withDefaults(), c: c, o: o}
}

// TrainPolysemy fits step II's classifier on terms with known status.
// Callers usually label terms via the metathesaurus: terms with ≥ 2
// concepts are polysemic. Without training, every candidate is treated
// as monosemic (k = 1).
func (e *Enricher) TrainPolysemy(polysemic, monosemic []string) error {
	det, err := polysemy.Train(e.c, polysemic, monosemic,
		func() ml.Classifier { return ml.NewRandomForest() }, polysemy.AllFeatures)
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	e.detector = det
	return nil
}

// IsPolysemic probes the trained step II detector for one term against
// a corpus. False when no detector has been trained.
func (e *Enricher) IsPolysemic(c *corpus.Corpus, term string) bool {
	return e.detector != nil && e.detector.IsPolysemic(c, term)
}

// Run executes steps I–IV and returns the report. The ontology is not
// modified; call Apply with accepted candidates to enrich it. Run is
// RunContext with context.Background(): it cannot be cancelled.
//
// Steps II–IV are independent per candidate and run on a bounded pool
// of Config.Workers goroutines. The report is deterministic whatever
// the pool size: candidate selection and ordering are fixed by step
// I's rank before any worker starts, each worker writes into its
// candidate's pre-assigned slot, and clustering seeds derive from the
// slot index rather than scheduling order.
func (e *Enricher) Run() (*Report, error) {
	//biolint:allow context-background documented uncancellable convenience wrapper
	return e.RunContext(context.Background())
}

// RunContext is Run with a caller-controlled lifetime. Cancellation is
// cooperative at candidate and step granularity: the pool stops
// dispatching on ctx.Done(), in-flight workers abandon their candidate
// at the next step boundary, and the run returns ctx's error (test
// with errors.Is against context.Canceled / context.DeadlineExceeded).
// A cancelled run returns a nil report — never a partial one — and
// increments obs.RunsCancelledMetric. An uncancelled RunContext is
// byte-identical to Run for the same Config.
func (e *Enricher) RunContext(ctx context.Context) (*Report, error) {
	report, err := e.run(ctx)
	if err != nil && ctx.Err() != nil {
		e.cfg.Obs.Counter(obs.RunsCancelledMetric).Inc()
	}
	return report, err
}

func (e *Enricher) run(ctx context.Context) (*Report, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: run: %w", err)
	}
	ctx, runSpan := e.cfg.Obs.StartSpan(ctx, "enrich.run")
	defer runSpan.End()
	_, sp1 := e.cfg.Obs.StartSpan(ctx, "step1.extract")
	ext := termex.NewExtractor(e.c)
	ext.LearnPatterns(e.o.Terms()) // LIDF pattern model from the ontology

	// Selection (sequential): walk step I's ranking best first and fix
	// every candidate's slot in the report, stopping at TopCandidates
	// new terms. Known terms are recorded but bounded by TopCandidates
	// so a corpus dominated by ontology terminology cannot blow up the
	// report; they never count against the new candidates.
	report := &Report{Measure: e.cfg.Measure}
	var work []int // slots needing steps II–IV
	kept, known := 0, 0
	err := ext.Walk(ctx, e.cfg.Measure, func(st termex.ScoredTerm) bool {
		if kept >= e.cfg.TopCandidates {
			return false
		}
		if e.o.HasTerm(st.Term) {
			if known >= e.cfg.TopCandidates {
				return true
			}
			known++
			report.Candidates = append(report.Candidates,
				Candidate{Term: st.Term, Score: st.Score, Known: true})
			return true
		}
		kept++
		work = append(work, len(report.Candidates))
		report.Candidates = append(report.Candidates,
			Candidate{Term: st.Term, Score: st.Score})
		return true
	})
	if err != nil {
		sp1.End()
		return nil, fmt.Errorf("core: step I: %w", err)
	}
	if e.cfg.Log != nil {
		e.cfg.Log.Info("step I complete",
			"measure", string(e.cfg.Measure),
			"candidates", ext.NumCandidates(),
			"kept", e.cfg.TopCandidates)
	}
	sp1.End()

	// Steps II–IV get one span each per Run. They interleave per
	// candidate across the pool, so each span accumulates its step's
	// per-candidate busy time (AddBatch) rather than wall clock.
	_, sp2 := e.cfg.Obs.StartSpan(ctx, "step2.polysemy")
	_, sp3 := e.cfg.Obs.StartSpan(ctx, "step3.senseind")
	_, sp4 := e.cfg.Obs.StartSpan(ctx, "step4.linkage")
	defer func() { sp2.End(); sp3.End(); sp4.End() }()
	spans := stepSpans{s2: sp2, s3: sp3, s4: sp4}

	// Fan-out pass: one linker for the whole run (its context-vector
	// cache is shared, concurrency-safe, and saves repeated corpus
	// scans for pool terms common across candidates), one inducer
	// template whose seed is re-derived per slot.
	lopts := linkage.DefaultOptions()
	lopts.Obs = e.cfg.Obs
	linker := linkage.New(e.c, e.o, lopts)
	inducer := senseind.New()
	e.cfg.Obs.Counter("bioenrich_pool_tasks_queued_total").Add(float64(len(work)))
	active := e.cfg.Obs.Gauge("bioenrich_pool_tasks_active")
	timed := e.cfg.Obs != nil
	workers := e.cfg.workers()
	if workers > len(work) {
		workers = len(work)
	}
	slots := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			busy := e.cfg.Obs.Counter("bioenrich_pool_worker_busy_seconds_total", "worker", strconv.Itoa(w))
			for slot := range slots {
				// Candidate-granularity cancellation: once ctx is done
				// the worker skips its remaining slots (draining the
				// channel so the dispatcher never blocks) and the step
				// checks inside enrichCandidate abandon in-flight work.
				if ctx.Err() != nil {
					continue
				}
				active.Add(1)
				var start time.Time
				if timed {
					start = obs.Now()
				}
				e.enrichCandidate(ctx, &report.Candidates[slot], linker, inducer, int64(slot), spans)
				if timed {
					busy.Add(obs.Since(start).Seconds())
				}
				active.Add(-1)
			}
		}(w)
	}
dispatch:
	for _, slot := range work {
		select {
		case slots <- slot:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(slots)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: run cancelled: %w", err)
	}
	return report, nil
}

// stepSpans carries the per-step batch spans of one Run into the
// worker pool. All-nil when observability is disabled.
type stepSpans struct {
	s2, s3, s4 *obs.Span
}

// enrichCandidate runs steps II–IV (and the relation extension) for
// one pre-selected candidate, writing the outcome in place. Safe to
// call concurrently for distinct candidates: it only reads the corpus,
// ontology and detector, and the linker's cache is concurrency-safe.
// Cancellation is checked at every step boundary, between step III's
// harvest and its vectorization, and inside step IV via its
// context-aware entry point; a cancelled candidate is abandoned where
// it stands — the caller discards the whole report.
func (e *Enricher) enrichCandidate(ctx context.Context, cand *Candidate, linker *linkage.Linker, inducer *senseind.Inducer, slot int64, spans stepSpans) {
	timed := spans.s2 != nil
	var t0 time.Time
	if timed {
		t0 = obs.Now()
	}

	// Step II: polysemy prediction.
	if e.detector != nil {
		cand.Polysemic = e.detector.IsPolysemic(e.c, cand.Term)
	}
	if timed {
		t1 := obs.Now()
		spans.s2.AddBatch(t1.Sub(t0))
		t0 = t1
	}
	if ctx.Err() != nil {
		return
	}

	// Step III: sense induction (k = 1 for monosemic candidates). The
	// candidate's contexts are harvested once, at the window steps III
	// and IV share, and step IV reuses them. The seed derives from the
	// candidate's report slot so the clustering outcome is a pure
	// function of the slot, independent of which worker picks the
	// candidate up and in what order.
	contexts := e.c.Contexts(cand.Term, corpus.ContextWindow)
	if ctx.Err() == nil {
		words := make([][]string, len(contexts))
		for i, cw := range contexts {
			words[i] = cw.Words
		}
		if senses, err := inducer.WithSeed(baseSeed+slot).InduceFromContexts(cand.Term, words, cand.Polysemic); err == nil {
			cand.Senses = senses
		}
	}
	if timed {
		t1 := obs.Now()
		spans.s3.AddBatch(t1.Sub(t0))
		t0 = t1
	}
	if ctx.Err() != nil {
		return
	}

	// Step IV: position proposals.
	if props, err := linker.ProposeContext(ctx, cand.Term, contexts, topPositions); err == nil {
		cand.Positions = props
	}
	if timed {
		spans.s4.AddBatch(obs.Since(t0))
	}

	// Future-work extension: typed relations between the candidate
	// and its proposed anchors.
	if ctx.Err() != nil {
		return
	}
	if e.cfg.ExtractRelations && len(cand.Positions) > 0 {
		vocab := []string{cand.Term}
		for _, p := range cand.Positions {
			vocab = append(vocab, p.Where)
		}
		rels, err := relext.NewExtractor(vocab, e.c.Lang()).Extract(ctx, e.c)
		if err != nil {
			return
		}
		for _, rel := range rels {
			if rel.A == cand.Term || rel.B == cand.Term {
				cand.Relations = append(cand.Relations, rel)
			}
		}
	}
}

// Applied describes one enrichment actually performed.
type Applied struct {
	Term      string
	AsSynonym bool
	Anchor    ontology.ConceptID
	NewID     ontology.ConceptID // set when a new concept was created
}

// Apply enriches the ontology with every non-known candidate whose
// best proposal reaches minCosine, returning what was done: at or
// above synonymCosine the candidate becomes a synonym of the proposed
// concept, below it a new child concept.
func (e *Enricher) Apply(report *Report) ([]Applied, error) {
	var out []Applied
	nextID := e.o.NumConcepts()
	for _, cand := range report.Candidates {
		if cand.Known || len(cand.Positions) == 0 {
			continue
		}
		best := cand.Positions[0]
		if best.Cosine < minCosine {
			continue
		}
		if best.Cosine >= synonymCosine {
			if err := e.o.AddSynonym(best.Concept, cand.Term); err != nil {
				return out, fmt.Errorf("core: apply %q: %w", cand.Term, err)
			}
			out = append(out, Applied{Term: cand.Term, AsSynonym: true, Anchor: best.Concept})
			continue
		}
		// New child concept under the anchor.
		var id ontology.ConceptID
		for {
			nextID++
			id = ontology.ConceptID(fmt.Sprintf("N%06d", nextID))
			if e.o.Concept(id) == nil {
				break
			}
		}
		if _, err := e.o.AddConcept(id, cand.Term); err != nil {
			return out, fmt.Errorf("core: apply %q: %w", cand.Term, err)
		}
		if err := e.o.SetParent(id, best.Concept); err != nil {
			return out, fmt.Errorf("core: apply %q: %w", cand.Term, err)
		}
		out = append(out, Applied{Term: cand.Term, Anchor: best.Concept, NewID: id})
	}
	if err := e.o.Validate(); err != nil {
		return out, fmt.Errorf("core: ontology invalid after apply: %w", err)
	}
	return out, nil
}
