package ontology

import (
	"bytes"
	"math/rand"
	"testing"
)

// eyeOntology builds a small MeSH-like fragment around corneal injuries.
func eyeOntology(t *testing.T) *Ontology {
	t.Helper()
	o := New("mesh-test")
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	add := func(id ConceptID, pref string) {
		t.Helper()
		if _, err := o.AddConcept(id, pref); err != nil {
			t.Fatal(err)
		}
	}
	add("D1", "eye diseases")
	add("D2", "corneal diseases")
	add("D3", "eye injuries")
	add("D4", "corneal injuries")
	add("D5", "corneal ulcer")
	must(o.AddSynonym("D4", "corneal injury"))
	must(o.AddSynonym("D4", "corneal damage"))
	must(o.AddSynonym("D4", "corneal trauma"))
	must(o.SetParent("D2", "D1"))
	must(o.SetParent("D3", "D1"))
	must(o.SetParent("D4", "D2"))
	must(o.SetParent("D4", "D3"))
	must(o.SetParent("D5", "D2"))
	return o
}

func TestAddAndLookup(t *testing.T) {
	o := eyeOntology(t)
	if o.NumConcepts() != 5 {
		t.Errorf("concepts = %d", o.NumConcepts())
	}
	ids := o.ConceptsForTerm("Corneal  INJURY")
	if len(ids) != 1 || ids[0] != "D4" {
		t.Errorf("ConceptsForTerm = %v", ids)
	}
	if !o.HasTerm("corneal damage") || o.HasTerm("nonexistent") {
		t.Error("HasTerm failed")
	}
	if n := len(o.ConceptsForTerm("corneal injuries")); n != 1 {
		t.Errorf("corneal injuries has %d senses, want 1", n)
	}
}

func TestAddConceptErrors(t *testing.T) {
	o := New("x")
	if _, err := o.AddConcept("C1", "term"); err != nil {
		t.Fatal(err)
	}
	if _, err := o.AddConcept("C1", "other"); err == nil {
		t.Error("duplicate id accepted")
	}
	if _, err := o.AddConcept("C2", "  "); err == nil {
		t.Error("empty preferred accepted")
	}
	if err := o.AddSynonym("missing", "t"); err == nil {
		t.Error("synonym on missing concept accepted")
	}
}

func TestSynonymDedup(t *testing.T) {
	o := New("x")
	o.AddConcept("C1", "heart attack")
	o.AddSynonym("C1", "myocardial infarction")
	o.AddSynonym("C1", "Myocardial  Infarction") // dup after normalize
	o.AddSynonym("C1", "heart attack")           // same as preferred
	c := o.Concept("C1")
	if len(c.Synonyms) != 1 {
		t.Errorf("synonyms = %v", c.Synonyms)
	}
}

func TestCycleRejected(t *testing.T) {
	o := eyeOntology(t)
	if err := o.SetParent("D1", "D4"); err == nil {
		t.Error("cycle accepted")
	}
	if err := o.SetParent("D1", "D1"); err == nil {
		t.Error("self-parent accepted")
	}
	if err := o.Validate(); err != nil {
		t.Errorf("valid ontology failed validation: %v", err)
	}
}

func TestSetParentIdempotent(t *testing.T) {
	o := eyeOntology(t)
	if err := o.SetParent("D4", "D2"); err != nil {
		t.Fatal(err)
	}
	if n := len(o.Concept("D4").Parents); n != 2 {
		t.Errorf("duplicate parent link: %d parents", n)
	}
}

func TestRemoveConcept(t *testing.T) {
	o := eyeOntology(t)
	o.RemoveConcept("D2")
	if o.Concept("D2") != nil {
		t.Fatal("concept not removed")
	}
	if err := o.Validate(); err != nil {
		t.Errorf("invalid after removal: %v", err)
	}
	if o.HasTerm("corneal diseases") {
		t.Error("removed concept's term still indexed")
	}
	// D4 keeps its other parent D3.
	if len(o.Concept("D4").Parents) != 1 || o.Concept("D4").Parents[0] != "D3" {
		t.Errorf("D4 parents = %v", o.Concept("D4").Parents)
	}
	o.RemoveConcept("nonexistent") // no panic
}

func TestPolysemyStats(t *testing.T) {
	o := New("umls-test")
	o.AddConcept("C1", "cold")  // temperature
	o.AddConcept("C2", "cold")  // common cold
	o.AddConcept("C3", "fever") // monosemic
	stats := o.PolysemyStats()
	if stats[2] != 1 || stats[1] != 1 {
		t.Errorf("stats = %v", stats)
	}
	poly := o.PolysemicTerms()
	if len(poly) != 1 || poly[0] != "cold" {
		t.Errorf("polysemic = %v", poly)
	}
	mono := o.MonosemicTerms()
	if len(mono) != 1 || mono[0] != "fever" {
		t.Errorf("monosemic = %v", mono)
	}
	if n := len(o.ConceptsForTerm("cold")); n != 2 {
		t.Errorf("cold has %d senses, want 2", n)
	}
}

func TestRelatedTerms(t *testing.T) {
	o := eyeOntology(t)
	rel := o.RelatedTerms("corneal injuries")
	for _, want := range []string{
		"corneal injury", "corneal damage", "corneal trauma", // synonyms
		"corneal diseases", "eye injuries", // fathers
	} {
		if !rel[want] {
			t.Errorf("missing related term %q in %v", want, rel)
		}
	}
	if rel["corneal injuries"] {
		t.Error("term itself included in related set")
	}
	if rel["corneal ulcer"] {
		t.Error("sibling wrongly included (not a synonym/father/son)")
	}
}

func TestCloneIndependence(t *testing.T) {
	o := eyeOntology(t)
	c := o.Clone()
	c.AddConcept("DX", "new term")
	if o.HasTerm("new term") {
		t.Error("clone shares state")
	}
	if err := c.Validate(); err != nil {
		t.Errorf("clone invalid: %v", err)
	}
}

func TestPersistRoundTrip(t *testing.T) {
	o := eyeOntology(t)
	var buf bytes.Buffer
	if err := o.Write(&buf); err != nil {
		t.Fatal(err)
	}
	o2, err := ReadFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if o2.NumConcepts() != o.NumConcepts() || o2.NumTerms() != o.NumTerms() {
		t.Error("round trip size mismatch")
	}
	if got := o2.ConceptsForTerm("corneal injury"); len(got) != 1 || got[0] != "D4" {
		t.Errorf("round trip lookup = %v", got)
	}
	if err := o2.Validate(); err != nil {
		t.Errorf("round trip invalid: %v", err)
	}
}

func TestReadFromErrors(t *testing.T) {
	if _, err := ReadFrom(bytes.NewBufferString("{}")); err == nil {
		t.Error("format error not detected")
	}
	if _, err := ReadFrom(bytes.NewBufferString("garbage")); err == nil {
		t.Error("decode error not detected")
	}
}

// TestRandomDAGInvariants builds random DAGs through the public API and
// checks that Validate always passes and all link attempts that
// succeeded preserved acyclicity.
func TestRandomDAGInvariants(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		o := New("rand")
		n := 5 + r.Intn(20)
		ids := make([]ConceptID, n)
		for i := 0; i < n; i++ {
			ids[i] = ConceptID(rune('A' + i))
			if _, err := o.AddConcept(ids[i], string(rune('a'+i))+" term"); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < n*2; i++ {
			a := ids[r.Intn(n)]
			b := ids[r.Intn(n)]
			_ = o.SetParent(a, b) // may legitimately fail on cycles
		}
		if err := o.Validate(); err != nil {
			t.Fatalf("trial %d: invariant broken: %v", trial, err)
		}
		// Random removals keep the structure valid.
		for i := 0; i < 3; i++ {
			o.RemoveConcept(ids[r.Intn(n)])
		}
		if err := o.Validate(); err != nil {
			t.Fatalf("trial %d after removal: %v", trial, err)
		}
	}
}
