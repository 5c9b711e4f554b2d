// Quickstart: run the complete four-step enrichment workflow against a
// generated MeSH-like ontology and PubMed-like corpus, then apply the
// accepted proposals and show how the ontology grew.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"bioenrich/internal/core"
	"bioenrich/internal/synth"
)

func main() {
	// 1. Data: a synthetic ontology + corpus stand in for MeSH and
	// PubMed (see DESIGN.md for why this preserves the behaviour).
	mesh := synth.GenerateMesh(synth.DefaultMeshOptions())
	corp := synth.GenerateMeshCorpus(mesh, synth.DefaultCorpusOptions())
	fmt.Printf("ontology: %d concepts, %d terms | corpus: %d docs, %d tokens\n\n",
		mesh.Ontology.NumConcepts(), mesh.Ontology.NumTerms(),
		corp.NumDocs(), corp.NumTokens())

	// 2. The enricher with the paper's default strategy choices.
	enricher := core.NewEnricher(corp, mesh.Ontology, core.DefaultConfig())

	// 3. Run steps I-IV.
	report, err := enricher.Run()
	if err != nil {
		log.Fatal(err)
	}
	fresh := 0
	for _, cand := range report.Candidates {
		if cand.Known {
			continue
		}
		fresh++
		fmt.Printf("candidate %q (score %.2f)\n", cand.Term, cand.Score)
		if cand.Senses != nil {
			fmt.Printf("  induced senses: %d\n", cand.Senses.K)
		}
		for i, p := range cand.Positions {
			if i >= 3 {
				break
			}
			fmt.Printf("  position %d: %s (cosine %.3f, %s)\n", i+1, p.Where, p.Cosine, p.Relation)
		}
	}
	fmt.Printf("\n%d new candidates examined\n", fresh)

	// 4. Apply the accepted proposals.
	before := mesh.Ontology.NumTerms()
	applied, err := enricher.Apply(report)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("applied %d enrichments: %d -> %d terms\n",
		len(applied), before, mesh.Ontology.NumTerms())
	for _, a := range applied {
		if a.AsSynonym {
			fmt.Printf("  %q added as synonym of %s\n", a.Term, a.Anchor)
		} else {
			fmt.Printf("  %q added as new concept %s under %s\n", a.Term, a.NewID, a.Anchor)
		}
	}
}
