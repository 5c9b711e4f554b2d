package core

import (
	"fmt"
	"reflect"
	"testing"

	"bioenrich/internal/corpus"
	"bioenrich/internal/ontology"
	"bioenrich/internal/synth"
	"bioenrich/internal/termex"
)

// meshFixture generates a synthetic MeSH-like ontology and matching
// corpus — large enough that a run pushes several candidates through
// steps II–IV, the shape the worker pool is built for.
func meshFixture() (*corpus.Corpus, *ontology.Ontology) {
	mopts := synth.DefaultMeshOptions()
	mopts.Branches = 2
	mopts.Depth = 2
	copts := synth.DefaultCorpusOptions()
	copts.DocsPerConcept = 3
	mesh := synth.GenerateMesh(mopts)
	c := synth.GenerateMeshCorpus(mesh, copts)
	return c, mesh.Ontology
}

// TestConfigWithDefaultsPreservesCustomFields is the regression for
// NewEnricher wholesale-replacing a partly set Config: explicitly-set
// fields must survive defaulting.
func TestConfigWithDefaultsPreservesCustomFields(t *testing.T) {
	c, o := pipelineFixture()
	e := NewEnricher(c, o, Config{TopCandidates: 3})
	if e.cfg.TopCandidates != 3 {
		t.Errorf("TopCandidates = %d, want the caller's 3", e.cfg.TopCandidates)
	}
	if def := DefaultConfig(); e.cfg.Measure != def.Measure {
		t.Errorf("zero Measure not defaulted: %+v", e.cfg)
	}

	// And the honored TopCandidates actually bounds the run.
	report, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	fresh := 0
	for _, cand := range report.Candidates {
		if !cand.Known {
			fresh++
		}
	}
	if fresh > 3 {
		t.Errorf("%d new candidates, want ≤ 3", fresh)
	}
}

func TestWithDefaultsKeepsExplicitValues(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TopCandidates = 7
	cfg.Measure = termex.CValue
	got := cfg.withDefaults()
	if got.TopCandidates != 7 || got.Measure != termex.CValue {
		t.Errorf("withDefaults mangled explicit values: %+v", got)
	}
	if got.Workers != 0 || cfg.workers() < 1 {
		t.Errorf("workers resolution broken: Workers=%d workers()=%d", got.Workers, cfg.workers())
	}
}

// TestRunDeterministicAcrossWorkers is the tentpole's determinism
// guarantee: a fixed seed yields a byte-identical report whatever the
// pool size.
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	c, o := meshFixture()
	run := func(workers int) *Report {
		cfg := DefaultConfig()
		cfg.TopCandidates = 8
		cfg.Workers = workers
		report, err := NewEnricher(c, o, cfg).Run()
		if err != nil {
			t.Fatal(err)
		}
		return report
	}
	sequential := run(1)
	if len(sequential.Candidates) < 2 {
		t.Fatalf("fixture too small: %d candidates", len(sequential.Candidates))
	}
	for _, workers := range []int{2, 4, 8} {
		parallel := run(workers)
		if !reflect.DeepEqual(sequential, parallel) {
			t.Errorf("workers=%d report differs from workers=1", workers)
		}
	}
}

// TestRunRoundsDeterministicAcrossWorkers extends the guarantee
// through the enrich-apply loop: mutated ontologies stay in lockstep.
func TestRunRoundsDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) ([]RoundReport, *ontology.Ontology) {
		c, o := meshFixture()
		cfg := DefaultConfig()
		cfg.TopCandidates = 6
		cfg.Workers = workers
		rounds, err := NewEnricher(c, o, cfg).RunRounds(2)
		if err != nil {
			t.Fatal(err)
		}
		return rounds, o
	}
	seqRounds, seqOnt := run(1)
	parRounds, parOnt := run(4)
	if !reflect.DeepEqual(seqRounds, parRounds) {
		t.Error("round reports differ between workers=1 and workers=4")
	}
	if seqOnt.NumTerms() != parOnt.NumTerms() || seqOnt.NumConcepts() != parOnt.NumConcepts() {
		t.Errorf("ontologies diverged: %d/%d terms, %d/%d concepts",
			seqOnt.NumTerms(), parOnt.NumTerms(),
			seqOnt.NumConcepts(), parOnt.NumConcepts())
	}
}

// TestRunCapsKnownTerms is the regression for the unbounded report: a
// corpus dominated by terms already in the ontology must not append
// known candidates past TopCandidates.
func TestRunCapsKnownTerms(t *testing.T) {
	o := ontology.New("mesh")
	known := []string{
		"corneal injury", "eye diseases", "corneal diseases",
		"membrane grafts", "epithelium scarring",
	}
	for i, term := range known {
		id := ontology.ConceptID(fmt.Sprintf("K%d", i+1))
		if _, err := o.AddConcept(id, term); err != nil {
			t.Fatal(err)
		}
	}
	c, _ := pipelineFixture() // corpus text is mostly the known terms above

	cfg := DefaultConfig()
	cfg.TopCandidates = 2 // bounds known terms too
	report, err := NewEnricher(c, o, cfg).Run()
	if err != nil {
		t.Fatal(err)
	}
	knownCount, freshCount := 0, 0
	for _, cand := range report.Candidates {
		if cand.Known {
			knownCount++
		} else {
			freshCount++
		}
	}
	if knownCount > 2 {
		t.Errorf("%d known candidates recorded, want ≤ TopCandidates (2)", knownCount)
	}
	if freshCount > 2 {
		t.Errorf("%d new candidates, want ≤ TopCandidates (2)", freshCount)
	}
	if len(report.Candidates) > 4 {
		t.Errorf("report holds %d candidates, want ≤ twice TopCandidates (4)", len(report.Candidates))
	}
}
