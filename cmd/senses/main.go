// Command senses is the step III tool: given a corpus and a candidate
// term, it predicts the term's number of senses (sweeping k = 2..5
// with one of the Table 2 indexes) and prints the induced concepts —
// each cluster's top context features.
//
// Usage:
//
//	senses -corpus data/corpus.json -term "corneal injuries"
//	       [-algorithm direct] [-index fk] [-rep bow] [-monosemic]
package main

import (
	"flag"
	"fmt"
	"os"

	"bioenrich/internal/cluster"
	"bioenrich/internal/corpus"
	"bioenrich/internal/senseind"
)

func main() {
	corpusPath := flag.String("corpus", "", "corpus JSON file (required)")
	term := flag.String("term", "", "candidate term (required)")
	algorithm := flag.String("algorithm", string(cluster.Direct), "rb, rbr, direct, agglo, graph")
	index := flag.String("index", string(cluster.FK), "ak, bk, ck, ek, fk")
	rep := flag.String("rep", string(senseind.BagOfWords), "bow or graph")
	monosemic := flag.Bool("monosemic", false, "treat the term as monosemic (k = 1)")
	seed := flag.Int64("seed", 1, "random seed")
	flag.Parse()

	if err := run(*corpusPath, *term, *algorithm, *index, *rep, *monosemic, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "senses:", err)
		os.Exit(1)
	}
}

func run(corpusPath, term, algorithm, index, rep string, monosemic bool, seed int64) error {
	if corpusPath == "" || term == "" {
		return fmt.Errorf("-corpus and -term are required")
	}
	c, err := corpus.Load(corpusPath)
	if err != nil {
		return err
	}
	in := &senseind.Inducer{
		Algorithm:      cluster.Algorithm(algorithm),
		Index:          cluster.Index(index),
		Representation: senseind.Representation(rep),
		Seed:           seed,
	}
	res, err := in.Induce(c, term, !monosemic)
	if err != nil {
		return err
	}
	fmt.Printf("term %q: %d induced sense(s) [%s, %s, %s] over %d contexts\n",
		res.Term, res.K, algorithm, index, rep, c.TF(term))
	for _, s := range res.Senses {
		fmt.Printf("  sense %d (%d contexts):", s.ID+1, s.Size)
		for _, f := range s.Features {
			fmt.Printf(" %s", f.Feature)
		}
		fmt.Println()
	}
	return nil
}
