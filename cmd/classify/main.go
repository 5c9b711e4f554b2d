// Command classify assigns documents to ontology concepts offline —
// the batch form of POST /v1/classify. Each input document is scored
// by cosine similarity between its content-word vector and the
// per-concept context-vector profiles built from the corpus (see
// internal/classify); output is one JSON line per document, ranked
// concepts best first.
//
// Usage:
//
//	classify -corpus data/corpus.json -ontology data/ontology.json \
//	         -text "one document to classify"
//	classify -corpus data/corpus.json -ontology data/ontology.json \
//	         -in docs.jsonl [-top 5] [-window 8] [-out results.jsonl]
//
// -in reads documents as JSONL ({"id":...,"title":...,"text":...}, one
// per line) in the corpus's language; -text classifies a single inline
// document instead. The concept-profile index, with each profile's
// norm, is built once and shared across the whole batch, so a large
// batch costs O(corpus) once plus one sequential scoring pass per
// line. SIGINT cancels the batch cleanly; documents already classified
// stay written.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"bioenrich/internal/classify"
	"bioenrich/internal/corpus"
	"bioenrich/internal/ontology"
	"bioenrich/internal/state"
)

// options carries every flag into run, so tests drive the binary's
// whole surface through one struct.
type options struct {
	corpusPath, ontPath string
	text, inPath        string
	outPath             string
	top, window         int
}

func main() {
	var o options
	flag.StringVar(&o.corpusPath, "corpus", "", "corpus JSON file (required)")
	flag.StringVar(&o.ontPath, "ontology", "", "ontology JSON file (required)")
	flag.StringVar(&o.text, "text", "", "classify this single document")
	flag.StringVar(&o.inPath, "in", "", "classify each JSONL document in this file")
	flag.StringVar(&o.outPath, "out", "", "write JSONL results here (default stdout)")
	flag.IntVar(&o.top, "top", 5, "concepts to report per document")
	flag.IntVar(&o.window, "window", 0, "context window for concept profiles (0 = default 8)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "classify:", err)
		os.Exit(1)
	}
}

// resultLine is one output record.
type resultLine struct {
	Doc      string                  `json:"doc"`
	Epoch    uint64                  `json:"epoch"`
	Lang     string                  `json:"lang"`
	Concepts []classify.ConceptScore `json:"concepts"`
	Error    string                  `json:"error,omitempty"`
}

func run(ctx context.Context, o options, stdout io.Writer) error {
	if o.corpusPath == "" || o.ontPath == "" {
		return fmt.Errorf("-corpus and -ontology are required")
	}
	if (o.text == "") == (o.inPath == "") {
		return fmt.Errorf("exactly one of -text or -in is required")
	}
	if o.top < 0 || o.window < 0 {
		return fmt.Errorf("-top and -window must be non-negative")
	}
	c, err := corpus.Load(o.corpusPath)
	if err != nil {
		return err
	}
	ont, err := ontology.Load(o.ontPath)
	if err != nil {
		return err
	}
	snap := state.NewStore(c, ont).Load()

	var docs []corpus.Document
	if o.text != "" {
		docs = []corpus.Document{{ID: "doc-1", Text: o.text}}
	} else {
		in, err := corpus.LoadJSONL(o.inPath, c.Lang())
		if err != nil {
			return err
		}
		docs = in.Documents()
	}

	out := stdout
	if o.outPath != "" {
		f, err := os.Create(o.outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	enc := json.NewEncoder(out)

	cl := classify.New(classify.Options{Window: o.window})
	for _, d := range docs {
		if err := ctx.Err(); err != nil {
			return err
		}
		line := resultLine{Doc: d.ID}
		res, err := cl.Classify(ctx, "cli", snap, d.Title+" "+d.Text, o.top)
		if err != nil {
			if ctx.Err() != nil {
				return err
			}
			// A single unclassifiable document (no content words) is
			// reported on its line, not fatal to the batch.
			line.Error = err.Error()
			line.Concepts = []classify.ConceptScore{}
		} else {
			line.Epoch = res.Epoch
			line.Lang = res.Lang
			line.Concepts = res.Concepts
		}
		if err := enc.Encode(line); err != nil {
			return err
		}
	}
	return nil
}
