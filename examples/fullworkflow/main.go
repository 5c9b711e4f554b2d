// Fullworkflow demonstrates the complete paper pipeline with step II
// actually trained: the UMLS-like metathesaurus labels which known
// terms are polysemic, a classifier learns the 23-feature signature,
// and new candidates then flow through polysemy detection, sense
// induction and semantic linkage, with iterative apply rounds.
//
//	go run ./examples/fullworkflow
package main

import (
	"fmt"
	"log"
	"log/slog"
	"os"

	"bioenrich/internal/core"
	"bioenrich/internal/corpus"
	"bioenrich/internal/synth"
)

func main() {
	// 1. Labelled training data for step II from the synthetic
	// generator (in production: UMLS terms with ≥2 concepts vs 1).
	polyOpts := synth.DefaultPolysemyOptions()
	polyOpts.NumPolysemic, polyOpts.NumMonosemic = 25, 25
	trainSet := synth.GeneratePolysemySet(polyOpts)

	// 2. The working corpus + ontology to enrich.
	mesh := synth.GenerateMesh(synth.DefaultMeshOptions())
	workCorpus := synth.GenerateMeshCorpus(mesh, synth.DefaultCorpusOptions())

	// 3. Train the detector on the labelled corpus, then move it to
	// the working corpus. Training and serving corpora differ — the
	// classifier must carry over, which is the point of using features
	// rather than memorized terms.
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{
		Level: slog.LevelWarn, // keep stdout clean; bump to Info for progress
	}))
	cfg := core.DefaultConfig()
	cfg.Log = logger

	trainer := core.NewEnricher(trainSet.Corpus, mesh.Ontology, cfg)
	if err := trainer.TrainPolysemy(trainSet.Polysemic, trainSet.Monosemic); err != nil {
		log.Fatal(err)
	}
	detector := trainer // reuse: detector lives in the enricher

	// Sanity: the detector separates held-in labelled terms.
	hits := 0
	for _, term := range trainSet.Polysemic {
		if detectorIsPolysemic(detector, trainSet.Corpus, term) {
			hits++
		}
	}
	fmt.Printf("step II detector recalls %d/%d polysemic training terms\n",
		hits, len(trainSet.Polysemic))

	// 4. Enrich the working ontology over two rounds.
	worker := core.NewEnricher(workCorpus, mesh.Ontology, cfg)
	before := mesh.Ontology.NumTerms()
	rounds, err := worker.RunRounds(2)
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range rounds {
		fmt.Printf("round %d: %d candidates, %d applied\n",
			r.Round, len(r.Report.Candidates), len(r.Applied))
	}
	fmt.Printf("ontology grew %d -> %d terms\n", before, mesh.Ontology.NumTerms())
}

// detectorIsPolysemic probes the trained enricher's step II on a term.
func detectorIsPolysemic(e *core.Enricher, c *corpus.Corpus, term string) bool {
	return e.IsPolysemic(c, term)
}
