// Command termex is the step I tool (a BIOTEX-like CLI): it extracts
// and ranks biomedical candidate terms from a corpus.
//
// Usage:
//
//	termex -corpus data/corpus.json [-measure lidf-value] [-top 20]
//	       [-ontology data/ontology.json]
//
// When -ontology is given, its terms train the LIDF pattern model and
// terms already present are marked "known".
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"bioenrich/internal/corpus"
	"bioenrich/internal/ontology"
	"bioenrich/internal/termex"
)

func main() {
	corpusPath := flag.String("corpus", "", "corpus JSON file (required)")
	ontPath := flag.String("ontology", "", "ontology JSON file (optional)")
	measure := flag.String("measure", string(termex.LIDF), "ranking measure: c-value, tf-idf, okapi, f-tfidf-c, lidf-value")
	top := flag.Int("top", 20, "how many candidates to print")
	flag.Parse()

	if err := run(context.Background(), *corpusPath, *ontPath, termex.Measure(*measure), *top); err != nil {
		fmt.Fprintln(os.Stderr, "termex:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, corpusPath, ontPath string, measure termex.Measure, top int) error {
	if corpusPath == "" {
		return fmt.Errorf("-corpus is required (generate one with gencorpus)")
	}
	c, err := corpus.Load(corpusPath)
	if err != nil {
		return err
	}
	ext := termex.NewExtractor(c)
	var o *ontology.Ontology
	if ontPath != "" {
		if o, err = ontology.Load(ontPath); err != nil {
			return err
		}
		ext.LearnPatterns(o.Terms())
	}
	ranked, err := ext.Rank(ctx, measure, top)
	if err != nil {
		return err
	}
	fmt.Printf("top %d candidates by %s over %d docs (%d candidates total)\n",
		len(ranked), measure, c.NumDocs(), ext.NumCandidates())
	fmt.Printf("%-4s %-40s %10s %6s %6s %s\n", "no", "term", "score", "tf", "df", "known")
	for i, st := range ranked {
		known := ""
		if o != nil && o.HasTerm(st.Term) {
			known = "yes"
		}
		fmt.Printf("%-4d %-40s %10.4f %6d %6d %s\n",
			i+1, st.Term, st.Score, st.Freq, st.Docs, known)
	}
	return nil
}
