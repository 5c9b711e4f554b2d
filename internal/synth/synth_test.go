package synth

import (
	"math/rand"
	"testing"

	"bioenrich/internal/textutil"
)

// overlap returns the fraction of a's vocabulary shared with b.
func overlap(a, b *Topic) float64 {
	if len(a.Words) == 0 {
		return 0
	}
	set := make(map[string]bool, len(b.Words))
	for _, w := range b.Words {
		set[w] = true
	}
	n := 0
	for _, w := range a.Words {
		if set[w] {
			n++
		}
	}
	return float64(n) / float64(len(a.Words))
}

// table1Row returns PaperTable1's row for a vocabulary and language.
func table1Row(t *testing.T, vocabulary string, lang textutil.Lang) Table1Row {
	t.Helper()
	for _, r := range PaperTable1 {
		if r.Vocabulary == vocabulary && r.Lang == lang {
			return r
		}
	}
	t.Fatalf("PaperTable1 has no %s row for %v", vocabulary, lang)
	return Table1Row{}
}

func TestWordGenUnique(t *testing.T) {
	g := NewWordGen(1)
	seen := map[string]bool{}
	for i := 0; i < 5000; i++ {
		w := g.Word()
		if seen[w] {
			t.Fatalf("duplicate word %q at %d", w, i)
		}
		seen[w] = true
		if len(w) < 4 {
			t.Fatalf("too-short word %q", w)
		}
	}
}

func TestWordGenDeterministic(t *testing.T) {
	a, b := NewWordGen(42), NewWordGen(42)
	for i := 0; i < 100; i++ {
		if a.Word() != b.Word() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewWordGen(43)
	diff := false
	for i := 0; i < 20; i++ {
		if NewWordGen(42).Word() != c.Word() {
			diff = true
			break
		}
	}
	if !diff {
		t.Error("different seeds produced identical streams")
	}
}

func TestWordGenTerm(t *testing.T) {
	g := NewWordGen(1)
	term := g.Term(3)
	if n := len(splitSpaces(term)); n != 3 {
		t.Errorf("Term(3) has %d words: %q", n, term)
	}
	if g.Term(0) == "" {
		t.Error("Term(0) empty")
	}
}

func splitSpaces(s string) []string {
	var out []string
	start := -1
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ' ' {
			if start >= 0 {
				out = append(out, s[start:i])
				start = -1
			}
		} else if start < 0 {
			start = i
		}
	}
	return out
}

func TestTopicSampling(t *testing.T) {
	words := []string{"alpha", "beta", "gamma", "delta"}
	topic := NewTopic(words, 1.2)
	r := rand.New(rand.NewSource(1))
	counts := map[string]int{}
	for i := 0; i < 10000; i++ {
		counts[topic.Sample(r)]++
	}
	// Zipf: rank-1 word dominates.
	if counts["alpha"] <= counts["beta"] || counts["beta"] <= counts["gamma"] {
		t.Errorf("Zipf ordering violated: %v", counts)
	}
	for w := range counts {
		found := false
		for _, x := range words {
			if w == x {
				found = true
			}
		}
		if !found {
			t.Errorf("sampled unknown word %q", w)
		}
	}
}

func TestTopicEmpty(t *testing.T) {
	topic := NewTopic(nil, 1)
	r := rand.New(rand.NewSource(1))
	if got := topic.Sample(r); got != "" {
		t.Errorf("empty topic sample = %q", got)
	}
}

func TestMixedTopicOverlap(t *testing.T) {
	g := NewWordGen(5)
	parent := NewTopic(g.Words(40), 1)
	child := Mixed(parent, g.Words(28), 0.3, 1)
	ov := overlap(child, parent)
	if ov < 0.2 || ov > 0.4 {
		t.Errorf("overlap = %v, want ≈0.3", ov)
	}
	orphan := Mixed(nil, g.Words(10), 0.5, 1)
	if len(orphan.Words) != 10 {
		t.Errorf("orphan topic size = %d", len(orphan.Words))
	}
}

func TestGenerateMesh(t *testing.T) {
	opts := DefaultMeshOptions()
	m := GenerateMesh(opts)
	if err := m.Ontology.Validate(); err != nil {
		t.Fatalf("generated mesh invalid: %v", err)
	}
	if m.Ontology.NumConcepts() < 50 {
		t.Errorf("mesh too small: %d concepts", m.Ontology.NumConcepts())
	}
	roots := 0
	for _, id := range m.Ontology.ConceptIDs() {
		if len(m.Ontology.Concept(id).Parents) == 0 {
			roots++
		}
	}
	if roots != opts.Branches {
		t.Errorf("roots = %d, want %d", roots, opts.Branches)
	}
	// Every concept has a topic.
	for _, id := range m.Ontology.ConceptIDs() {
		if m.Topics[id] == nil {
			t.Fatalf("concept %s lacks a topic", id)
		}
	}
}

func TestGenerateMeshDeterministic(t *testing.T) {
	a := GenerateMesh(DefaultMeshOptions())
	b := GenerateMesh(DefaultMeshOptions())
	if a.Ontology.NumConcepts() != b.Ontology.NumConcepts() ||
		a.Ontology.NumTerms() != b.Ontology.NumTerms() {
		t.Error("same-seed meshes differ")
	}
}

func TestMeshTopicInheritance(t *testing.T) {
	m := GenerateMesh(DefaultMeshOptions())
	// A child topic overlaps its parent topic far more than a random
	// other topic.
	for _, id := range m.Ontology.ConceptIDs() {
		c := m.Ontology.Concept(id)
		if len(c.Parents) == 0 {
			continue
		}
		p := c.Parents[0]
		ovParent := overlap(m.Topics[id], m.Topics[p])
		if ovParent < 0.1 {
			t.Errorf("concept %s barely overlaps parent: %v", id, ovParent)
		}
		break
	}
}

func TestGenerateMeshCorpus(t *testing.T) {
	m := GenerateMesh(MeshOptions{
		Seed: 1, Branches: 2, Depth: 2, MinChildren: 2, MaxChildren: 2,
		MaxSynonyms: 2, TopicSize: 20, ParentShare: 0.3, ZipfS: 1,
	})
	opts := DefaultCorpusOptions()
	opts.DocsPerConcept = 3
	c := GenerateMeshCorpus(m, opts)
	if c.NumDocs() != m.Ontology.NumConcepts()*3 {
		t.Errorf("docs = %d, want %d", c.NumDocs(), m.Ontology.NumConcepts()*3)
	}
	// Every concept's preferred term occurs in the corpus.
	for _, id := range m.Ontology.ConceptIDs() {
		pref := m.Ontology.Concept(id).Preferred
		if c.TF(pref) == 0 {
			t.Errorf("preferred term %q absent from corpus", pref)
		}
	}
}

func TestTable1ScaleAndGenerate(t *testing.T) {
	row := table1Row(t, "UMLS", textutil.English)
	scaled := row.Scale(2000)
	o := GenerateMetathesaurus(scaled, 1)
	stats := o.PolysemyStats()
	if stats[2] != scaled.K2 {
		t.Errorf("k=2 terms = %d, want %d", stats[2], scaled.K2)
	}
	if stats[3] != scaled.K3 {
		t.Errorf("k=3 terms = %d, want %d", stats[3], scaled.K3)
	}
	if stats[4] != scaled.K4 {
		t.Errorf("k=4 terms = %d, want %d", stats[4], scaled.K4)
	}
	if stats[5] != scaled.FivePlus {
		t.Errorf("k=5 terms = %d, want %d", stats[5], scaled.FivePlus)
	}
	if o.NumTerms() != scaled.TotalTerms {
		t.Errorf("total terms = %d, want %d", o.NumTerms(), scaled.TotalTerms)
	}
}

func TestScaleKeepsNonzero(t *testing.T) {
	row := Table1Row{TotalTerms: 100, K2: 1, K3: 1}
	s := row.Scale(1000)
	if s.K2 != 1 || s.K3 != 1 {
		t.Errorf("nonzero counts vanished: %+v", s)
	}
	if s.K4 != 0 {
		t.Errorf("zero count became nonzero: %+v", s)
	}
}

func TestMeSHSpanishRowAllZero(t *testing.T) {
	row := table1Row(t, "MeSH", textutil.Spanish)
	o := GenerateMetathesaurus(row.Scale(1000), 1)
	if len(o.PolysemicTerms()) != 0 {
		t.Error("MeSH ES should have no polysemic terms")
	}
}

func TestGenerateMSHWSD(t *testing.T) {
	opts := DefaultWSDOptions()
	opts.NumEntities = 20
	opts.ContextsPerSense = 5
	ds := GenerateMSHWSD(opts)
	if len(ds.Entities) != 20 {
		t.Fatalf("entities = %d", len(ds.Entities))
	}
	for _, e := range ds.Entities {
		if e.K < 2 || e.K > 5 {
			t.Errorf("entity %s has k=%d", e.Term, e.K)
		}
		if len(e.Contexts) != e.K*opts.ContextsPerSense {
			t.Errorf("entity %s has %d contexts, want %d",
				e.Term, len(e.Contexts), e.K*opts.ContextsPerSense)
		}
		if len(e.Labels) != len(e.Contexts) {
			t.Errorf("labels/contexts mismatch for %s", e.Term)
		}
		for _, l := range e.Labels {
			if l < 0 || l >= e.K {
				t.Errorf("label %d out of range for k=%d", l, e.K)
			}
		}
	}
}

func TestSenseDistribution203(t *testing.T) {
	ks := senseDistribution(203)
	if len(ks) != 203 {
		t.Fatalf("len = %d", len(ks))
	}
	counts := map[int]int{}
	for _, k := range ks {
		counts[k]++
	}
	// 2 senses dominate, as in UMLS/MSH WSD.
	if counts[2] < counts[3] || counts[3] < counts[4] || counts[4] < counts[5] {
		t.Errorf("distribution not skewed: %v", counts)
	}
	if counts[2]+counts[3]+counts[4]+counts[5] != 203 {
		t.Errorf("counts don't sum: %v", counts)
	}
}

func TestGeneratePolysemySet(t *testing.T) {
	opts := DefaultPolysemyOptions()
	opts.NumPolysemic = 5
	opts.NumMonosemic = 5
	opts.ContextsPerTerm = 10
	set := GeneratePolysemySet(opts)
	if len(set.Polysemic) != 5 || len(set.Monosemic) != 5 {
		t.Fatal("term counts wrong")
	}
	for _, term := range append(set.Polysemic, set.Monosemic...) {
		if set.Corpus.TF(term) != opts.ContextsPerTerm {
			t.Errorf("TF(%s) = %d, want %d", term, set.Corpus.TF(term), opts.ContextsPerTerm)
		}
	}
}

func TestHoldOutSynonym(t *testing.T) {
	m := GenerateMesh(DefaultMeshOptions())
	// Find a concept with at least one synonym; hold out the synonym.
	for _, id := range m.Ontology.ConceptIDs() {
		c := m.Ontology.Concept(id)
		if len(c.Synonyms) == 0 {
			continue
		}
		victim := c.Synonyms[0]
		reduced := HoldOut(m.Ontology, victim)
		if reduced.HasTerm(victim) {
			t.Fatalf("held-out term %q still present", victim)
		}
		if reduced.Concept(id) == nil {
			t.Fatalf("concept %s disappeared", id)
		}
		if err := reduced.Validate(); err != nil {
			t.Fatalf("reduced ontology invalid: %v", err)
		}
		// Original untouched.
		if !m.Ontology.HasTerm(victim) {
			t.Fatal("HoldOut mutated the original")
		}
		return
	}
	t.Skip("no synonym found (unexpected with default options)")
}

func TestHoldOutPreferred(t *testing.T) {
	m := GenerateMesh(DefaultMeshOptions())
	for _, id := range m.Ontology.ConceptIDs() {
		c := m.Ontology.Concept(id)
		if len(c.Synonyms) == 0 {
			continue
		}
		victim := c.Preferred
		reduced := HoldOut(m.Ontology, victim)
		if reduced.HasTerm(victim) {
			t.Fatalf("held-out preferred %q still present", victim)
		}
		if reduced.Concept(id) == nil {
			t.Fatal("concept with synonyms should survive preferred removal")
		}
		if err := reduced.Validate(); err != nil {
			t.Fatalf("invalid: %v", err)
		}
		return
	}
	t.Skip("no synonym-bearing concept found")
}

func TestHoldOutLeafWithoutSynonyms(t *testing.T) {
	m := GenerateMesh(DefaultMeshOptions())
	for _, id := range m.Ontology.ConceptIDs() {
		c := m.Ontology.Concept(id)
		if len(c.Synonyms) != 0 || len(c.Children) != 0 {
			continue
		}
		victim := c.Preferred
		reduced := HoldOut(m.Ontology, victim)
		if reduced.Concept(id) != nil {
			t.Fatal("term-less concept should be removed")
		}
		if err := reduced.Validate(); err != nil {
			t.Fatalf("invalid: %v", err)
		}
		return
	}
	t.Skip("no synonym-less leaf found")
}
