// Command enrich runs the paper's complete four-step workflow: extract
// candidate terms from a corpus, detect polysemy, induce senses,
// propose ontology positions, and (with -apply) enrich the ontology in
// place, writing the result to -out.
//
// Usage:
//
//	enrich -corpus data/corpus.json -ontology data/ontology.json \
//	       [-top 20] [-measure lidf-value] [-apply -out enriched.json] \
//	       [-timeout 5m] [-metrics] [-pprof cpu.out] [-log-level info]
//
// -metrics instruments the run and prints a per-step (I-IV) timing
// summary after the report; -pprof writes a CPU profile of the run to
// the given file for `go tool pprof`; -log-level enables structured
// progress logging on stderr. -timeout deadlines the run; SIGINT
// cancels it gracefully — in both cases nothing is applied and, with
// -metrics, the partial timing summary of the work done so far still
// prints.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"runtime/pprof"
	"syscall"
	"time"

	"bioenrich/internal/core"
	"bioenrich/internal/corpus"
	"bioenrich/internal/obs"
	"bioenrich/internal/ontology"
	"bioenrich/internal/termex"
)

// options carries every flag into run, so tests drive the binary's
// whole surface through one struct.
type options struct {
	corpusPath, ontPath string
	measure             termex.Measure
	top, workers        int
	apply, relations    bool
	out, reportPath     string
	metrics             bool
	pprofPath           string
	logLevel            string
	timeout             time.Duration
}

func main() {
	var o options
	var measure string
	flag.StringVar(&o.corpusPath, "corpus", "", "corpus JSON file (required)")
	flag.StringVar(&o.ontPath, "ontology", "", "ontology JSON file (required)")
	flag.StringVar(&measure, "measure", string(termex.LIDF), "step I ranking measure")
	flag.IntVar(&o.top, "top", 20, "candidates to push through steps II-IV")
	flag.BoolVar(&o.apply, "apply", false, "apply accepted proposals to the ontology")
	flag.BoolVar(&o.relations, "relations", false, "also extract typed relations to the proposed anchors")
	flag.IntVar(&o.workers, "workers", 0, "worker pool for steps II-IV (0 = all cores)")
	flag.StringVar(&o.out, "out", "enriched.json", "output path for the enriched ontology (with -apply)")
	flag.StringVar(&o.reportPath, "report", "", "write a Markdown curation report to this path")
	flag.BoolVar(&o.metrics, "metrics", false, "instrument the pipeline and print a per-step timing summary")
	flag.StringVar(&o.pprofPath, "pprof", "", "write a CPU profile of the run to this file")
	flag.StringVar(&o.logLevel, "log-level", "", "structured progress logging on stderr: debug|info|warn|error (empty = off)")
	flag.DurationVar(&o.timeout, "timeout", 0, "abort the run after this long (0 = no deadline); SIGINT also cancels gracefully")
	flag.Parse()
	o.measure = termex.Measure(measure)

	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "enrich:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	if o.corpusPath == "" || o.ontPath == "" {
		return fmt.Errorf("-corpus and -ontology are required (generate with gencorpus)")
	}
	c, err := corpus.Load(o.corpusPath)
	if err != nil {
		return err
	}
	ont, err := ontology.Load(o.ontPath)
	if err != nil {
		return err
	}
	cfg := core.DefaultConfig()
	cfg.Measure = o.measure
	cfg.TopCandidates = o.top
	cfg.Workers = o.workers
	cfg.ExtractRelations = o.relations
	if o.logLevel != "" {
		level, err := obs.ParseLevel(o.logLevel)
		if err != nil {
			return err
		}
		cfg.Log = slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
	}
	var reg *obs.Registry
	if o.metrics {
		reg = obs.New()
		cfg.Obs = reg
	}
	if o.pprofPath != "" {
		f, err := os.Create(o.pprofPath)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
			fmt.Printf("wrote CPU profile to %s\n", o.pprofPath)
		}()
	}
	enricher := core.NewEnricher(c, ont, cfg)

	// Train step II from the ontology's own polysemy ground truth when
	// it has enough labelled terms of both classes.
	poly, mono := ont.PolysemicTerms(), ont.MonosemicTerms()
	poly, mono = inCorpus(c, poly, 40), inCorpus(c, mono, 40)
	if len(poly) >= 5 && len(mono) >= 5 {
		if err := enricher.TrainPolysemy(poly, mono); err != nil {
			return err
		}
		fmt.Printf("step II: trained on %d polysemic + %d monosemic ontology terms\n",
			len(poly), len(mono))
	} else {
		fmt.Println("step II: too few labelled terms; candidates treated as monosemic")
	}

	// The run is cancellable: ^C (SIGINT/SIGTERM) cancels it
	// gracefully, and -timeout adds a deadline. Either way the worker
	// pool drains within one candidate's work and, with -metrics, the
	// partial per-step timing summary still prints before the error.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if o.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, o.timeout)
		defer cancel()
	}
	report, err := enricher.RunContext(ctx)
	if err != nil {
		if reg != nil && ctx.Err() != nil {
			printTimings(reg)
		}
		return err
	}
	for _, cand := range report.Candidates {
		if cand.Known {
			fmt.Printf("%-40s known term, skipped\n", cand.Term)
			continue
		}
		k := 0
		if cand.Senses != nil {
			k = cand.Senses.K
		}
		fmt.Printf("%-40s score=%.3f polysemic=%-5v senses=%d proposals=%d\n",
			cand.Term, cand.Score, cand.Polysemic, k, len(cand.Positions))
		for i, p := range cand.Positions {
			if i >= 3 {
				break
			}
			fmt.Printf("    %d. %-36s cosine=%.4f (%s)\n", i+1, p.Where, p.Cosine, p.Relation)
		}
		for _, rel := range cand.Relations {
			fmt.Printf("    relation: %s\n", rel)
		}
	}
	if reg != nil {
		printTimings(reg)
	}
	if o.reportPath != "" {
		f, err := os.Create(o.reportPath)
		if err != nil {
			return err
		}
		if err := report.WriteMarkdown(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote curation report to %s\n", o.reportPath)
	}
	if !o.apply {
		return nil
	}
	applied, err := enricher.Apply(report)
	if err != nil {
		return err
	}
	for _, a := range applied {
		how := "new concept " + string(a.NewID) + " under"
		if a.AsSynonym {
			how = "synonym of"
		}
		fmt.Printf("applied: %q as %s %s\n", a.Term, how, a.Anchor)
	}
	if err := ont.Save(o.out); err != nil {
		return err
	}
	fmt.Printf("wrote enriched ontology to %s (%d concepts, %d terms)\n",
		o.out, ont.NumConcepts(), ont.NumTerms())
	return nil
}

// printTimings renders the per-step span summary of the run. Batch
// spans (steps II-IV) report summed busy time across workers, so on
// a multi-core run the step columns can exceed the wall clock.
func printTimings(reg *obs.Registry) {
	sums := reg.SpanSummaries()
	if len(sums) == 0 {
		return
	}
	fmt.Println("per-step timings (steps II-IV are summed worker busy time):")
	for _, s := range sums {
		line := fmt.Sprintf("  %-16s %dx  total=%s", s.Name, s.Count, s.Total.Round(time.Microsecond))
		if s.Batches > 0 {
			line += fmt.Sprintf("  batches=%d", s.Batches)
		}
		fmt.Println(line)
	}
}

// inCorpus filters terms that actually occur in the corpus, capped.
func inCorpus(c *corpus.Corpus, terms []string, max int) []string {
	var out []string
	for _, t := range terms {
		if c.TF(t) > 0 {
			out = append(out, t)
			if len(out) == max {
				break
			}
		}
	}
	return out
}
