package core

import (
	"math"
	"testing"

	"bioenrich/internal/corpus"
	"bioenrich/internal/ontology"
	"bioenrich/internal/synth"
	"bioenrich/internal/textutil"
)

// pipelineFixture: a small ontology and a corpus in which "corneal
// abrasion" is a new, frequent, linkable term.
func pipelineFixture() (*corpus.Corpus, *ontology.Ontology) {
	o := ontology.New("mesh")
	add := func(id ontology.ConceptID, pref string, syns ...string) {
		if _, err := o.AddConcept(id, pref); err != nil {
			panic(err)
		}
		for _, s := range syns {
			if err := o.AddSynonym(id, s); err != nil {
				panic(err)
			}
		}
	}
	add("D1", "eye diseases")
	add("D2", "corneal diseases")
	add("D3", "corneal injury", "corneal damage")
	for _, l := range [][2]ontology.ConceptID{{"D2", "D1"}, {"D3", "D2"}} {
		if err := o.SetParent(l[0], l[1]); err != nil {
			panic(err)
		}
	}
	c := corpus.New(textutil.English)
	docs := []string{
		"The corneal abrasion showed epithelium scarring near corneal injury tissue with membrane grafts.",
		"Severe corneal abrasion with epithelium scarring was treated by membrane grafts after corneal injury.",
		"A corneal abrasion heals when epithelium scarring subsides; corneal damage persists in membrane tissue.",
		"Corneal diseases include epithelium scarring conditions of the eye surface and membrane layers.",
		"The corneal injury caused epithelium scarring treated with membrane grafts rapidly.",
		"Corneal abrasion treatment uses membrane grafts when epithelium scarring appears near corneal diseases.",
	}
	for i, text := range docs {
		c.Add(corpus.Document{ID: string(rune('a' + i)), Text: text})
	}
	c.Build()
	return c, o
}

func TestRunPipeline(t *testing.T) {
	c, o := pipelineFixture()
	e := NewEnricher(c, o, DefaultConfig())
	report, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Candidates) == 0 {
		t.Fatal("no candidates")
	}
	var abrasion *Candidate
	for i := range report.Candidates {
		if report.Candidates[i].Term == "corneal abrasion" {
			abrasion = &report.Candidates[i]
		}
		if report.Candidates[i].Term == "corneal injury" && !report.Candidates[i].Known {
			t.Error("existing ontology term not flagged Known")
		}
	}
	if abrasion == nil {
		t.Fatal("'corneal abrasion' not among candidates")
	}
	if abrasion.Known {
		t.Error("new term flagged as known")
	}
	if abrasion.Senses == nil || abrasion.Senses.K != 1 {
		t.Error("untrained detector should yield one induced sense")
	}
	if len(abrasion.Positions) == 0 {
		t.Fatal("no position proposals for the new term")
	}
}

// setBestCosine moves every new candidate's best proposal to cosine,
// so Apply sees the report in the band under test. It returns how many
// candidates it moved.
func setBestCosine(report *Report, cosine float64) int {
	n := 0
	for i := range report.Candidates {
		cand := &report.Candidates[i]
		if !cand.Known && len(cand.Positions) > 0 {
			cand.Positions[0].Cosine = cosine
			n++
		}
	}
	return n
}

func TestApplySynonym(t *testing.T) {
	c, o := pipelineFixture()
	e := NewEnricher(c, o, DefaultConfig())
	report, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	setBestCosine(report, synonymCosine)
	applied, err := e.Apply(report)
	if err != nil {
		t.Fatal(err)
	}
	if len(applied) == 0 {
		t.Fatal("nothing applied")
	}
	found := false
	for _, a := range applied {
		if a.Term == "corneal abrasion" {
			found = true
			if !a.AsSynonym {
				t.Error("expected synonym attachment at the synonym cosine")
			}
		}
	}
	if !found {
		t.Error("'corneal abrasion' not applied")
	}
	if !o.HasTerm("corneal abrasion") {
		t.Error("ontology not enriched")
	}
	if err := o.Validate(); err != nil {
		t.Errorf("ontology invalid after apply: %v", err)
	}
}

// TestApplyNewConcept: a best cosine from minCosine up to but not
// including synonymCosine creates a new child concept.
func TestApplyNewConcept(t *testing.T) {
	for _, cosine := range []float64{minCosine, math.Nextafter(synonymCosine, 0)} {
		c, o := pipelineFixture()
		before := o.NumConcepts()
		e := NewEnricher(c, o, DefaultConfig())
		report, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		setBestCosine(report, cosine)
		applied, err := e.Apply(report)
		if err != nil {
			t.Fatal(err)
		}
		newConcepts := 0
		for _, a := range applied {
			if !a.AsSynonym {
				newConcepts++
				if a.NewID == "" {
					t.Error("new concept without id")
				}
				nc := o.Concept(a.NewID)
				if nc == nil || len(nc.Parents) == 0 {
					t.Error("new concept not linked under anchor")
				}
			}
		}
		if newConcepts == 0 {
			t.Errorf("cosine %v: no new concepts created below the synonym cosine", cosine)
		}
		if o.NumConcepts() != before+newConcepts {
			t.Errorf("cosine %v: concepts %d -> %d with %d additions",
				cosine, before, o.NumConcepts(), newConcepts)
		}
	}
}

func TestApplyMinCosineFilters(t *testing.T) {
	c, o := pipelineFixture()
	e := NewEnricher(c, o, DefaultConfig())
	report, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if setBestCosine(report, math.Nextafter(minCosine, 0)) == 0 {
		t.Fatal("no new candidate with a proposal")
	}
	applied, err := e.Apply(report)
	if err != nil {
		t.Fatal(err)
	}
	if len(applied) != 0 {
		t.Errorf("a best cosine below minCosine still applied %d candidates", len(applied))
	}
}

func TestTrainPolysemyIntegration(t *testing.T) {
	opts := synth.DefaultPolysemyOptions()
	opts.NumPolysemic = 8
	opts.NumMonosemic = 8
	opts.ContextsPerTerm = 20
	set := synth.GeneratePolysemySet(opts)
	o := ontology.New("empty")
	if _, err := o.AddConcept("D1", "anchor concept"); err != nil {
		t.Fatal(err)
	}
	e := NewEnricher(set.Corpus, o, DefaultConfig())
	if err := e.TrainPolysemy(set.Polysemic, set.Monosemic); err != nil {
		t.Fatal(err)
	}
	// A held-in polysemic term is detected.
	if !e.detector.IsPolysemic(set.Corpus, set.Polysemic[0]) {
		t.Error("trained detector missed a polysemic training term")
	}
}

func TestTrainPolysemyError(t *testing.T) {
	c, o := pipelineFixture()
	e := NewEnricher(c, o, DefaultConfig())
	if err := e.TrainPolysemy(nil, nil); err == nil {
		t.Error("empty training accepted")
	}
}
