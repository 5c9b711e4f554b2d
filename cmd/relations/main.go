// Command relations implements the paper's future-work extension:
// extracting the *type* of relation between candidate terms from the
// verbs and lexico-syntactic patterns connecting them.
//
// Usage:
//
//	relations -corpus data/corpus.json -ontology data/ontology.json [-top 20]
//	relations -selftest        # run the synthetic-gold evaluation
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"bioenrich/internal/corpus"
	"bioenrich/internal/ontology"
	"bioenrich/internal/relext"
	"bioenrich/internal/termex"
)

func main() {
	corpusPath := flag.String("corpus", "", "corpus JSON file")
	ontPath := flag.String("ontology", "", "ontology JSON file (vocabulary source)")
	top := flag.Int("top", 20, "relations to print")
	selftest := flag.Bool("selftest", false, "evaluate on the synthetic gold corpus")
	flag.Parse()

	if err := run(context.Background(), *corpusPath, *ontPath, *top, *selftest); err != nil {
		fmt.Fprintln(os.Stderr, "relations:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, corpusPath, ontPath string, top int, selftest bool) error {
	if selftest {
		res, err := relext.Evaluate(ctx, relext.DefaultSynthOptions())
		if err != nil {
			return err
		}
		fmt.Println("relation extraction vs synthetic gold:")
		fmt.Printf("  overall: %s\n", res.Overall)
		for _, typ := range []relext.RelationType{
			relext.Causes, relext.Treats, relext.Prevents, relext.Hypernym,
		} {
			fmt.Printf("  %-10s %s\n", typ, res.PerType[typ])
		}
		return nil
	}
	if corpusPath == "" || ontPath == "" {
		return fmt.Errorf("-corpus and -ontology are required (or use -selftest)")
	}
	c, err := corpus.Load(corpusPath)
	if err != nil {
		return err
	}
	o, err := ontology.Load(ontPath)
	if err != nil {
		return err
	}
	// Vocabulary: ontology terms + the top extracted candidates.
	vocab := o.Terms()
	ranked, err := termex.NewExtractor(c).Rank(ctx, termex.LIDF, 100)
	if err != nil {
		return err
	}
	for _, st := range ranked {
		vocab = append(vocab, st.Term)
	}
	rels, err := relext.NewExtractor(vocab, c.Lang()).Extract(ctx, c)
	if err != nil {
		return err
	}
	if len(rels) == 0 {
		fmt.Println("no typed relations found")
		return nil
	}
	if top > 0 && top < len(rels) {
		rels = rels[:top]
	}
	fmt.Printf("%-30s %-10s %-30s %-4s %s\n", "A", "type", "B", "n", "verbs")
	for _, r := range rels {
		fmt.Printf("%-30s %-10s %-30s %-4d %v\n", r.A, r.Type, r.B, r.Evidence, r.Verbs)
	}
	return nil
}
