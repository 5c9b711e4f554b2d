package linkage

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"bioenrich/internal/corpus"
	"bioenrich/internal/ontology"
	"bioenrich/internal/sparse"
	"bioenrich/internal/synth"
	"bioenrich/internal/textutil"
)

// fixture builds a tiny hand-written ontology + corpus where the right
// answer is unambiguous: "corneal injuries" should land near "corneal
// injury" (synonym) and "corneal diseases"/"eye injuries" (fathers).
func fixture() (*ontology.Ontology, *corpus.Corpus) {
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
	add("D3", "eye injuries")
	add("D4", "corneal injuries", "corneal injury", "corneal damage")
	add("D5", "corneal ulcer")
	add("D6", "bone fracture") // unrelated distractor
	for _, link := range [][2]ontology.ConceptID{
		{"D2", "D1"}, {"D3", "D1"}, {"D4", "D2"}, {"D4", "D3"}, {"D5", "D2"},
	} {
		if err := o.SetParent(link[0], link[1]); err != nil {
			panic(err)
		}
	}

	c := corpus.New(textutil.English)
	mention := func(id, text string) {
		c.Add(corpus.Document{ID: id, Text: text})
	}
	// The candidate and its synonym share topical context words.
	mention("1", "The corneal injuries healed after epithelium scarring treatment with membrane grafts.")
	mention("2", "Severe corneal injuries cause epithelium scarring and require membrane grafts near corneal diseases cases.")
	mention("3", "A corneal injury shows epithelium scarring treated by membrane grafts.")
	mention("4", "Chronic corneal diseases involve epithelium scarring of the eye surface tissue.")
	mention("5", "Eye injuries with epithelium scarring often accompany corneal injuries in trauma membrane cases.")
	mention("6", "The corneal ulcer required antibiotics and bandage therapy after infection onset.")
	mention("7", "Bone fracture repair uses titanium plates and screws for skeletal support.")
	mention("8", "Corneal damage presents epithelium scarring treated with membrane grafts quickly.")
	c.Build()
	return o, c
}

func TestProposeFindsSynonymAndFathers(t *testing.T) {
	o, c := fixture()
	reduced := synth.HoldOut(o, "corneal injuries")
	l := New(c, reduced, DefaultOptions())
	props, err := l.Propose("corneal injuries", 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(props) == 0 {
		t.Fatal("no proposals")
	}
	found := map[string]int{}
	for i, p := range props {
		found[p.Where] = i + 1
		if p.Cosine < 0 || p.Cosine > 1 {
			t.Errorf("cosine %v out of range", p.Cosine)
		}
	}
	if _, ok := found["corneal injury"]; !ok {
		t.Errorf("synonym 'corneal injury' not proposed: %v", props)
	}
	// The unrelated distractor never outranks the synonym.
	if r, ok := found["bone fracture"]; ok && r < found["corneal injury"] {
		t.Errorf("distractor ranked %d above synonym %d", r, found["corneal injury"])
	}
	// Ranking is descending.
	for i := 1; i < len(props); i++ {
		if props[i].Cosine > props[i-1].Cosine {
			t.Error("proposals not sorted")
		}
	}
}

func TestProposeErrors(t *testing.T) {
	o, c := fixture()
	l := New(c, o, DefaultOptions())
	if _, err := l.Propose("nonexistent term", 10); err == nil {
		t.Error("unknown candidate accepted")
	}
}

func TestProposeNoFatherExpansion(t *testing.T) {
	o, c := fixture()
	reduced := synth.HoldOut(o, "corneal injuries")
	opts := DefaultOptions()
	opts.ExpandFathers = false
	opts.ExpandSons = false
	l := New(c, reduced, opts)
	props, err := l.Propose("corneal injuries", 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range props {
		if p.Relation == Father || p.Relation == Son {
			t.Errorf("expansion disabled but got %s proposal %q", p.Relation, p.Where)
		}
	}
}

func TestEvaluateTable4Protocol(t *testing.T) {
	o, c := fixture()
	res, err := Evaluate(o, c, []string{"corneal injuries", "corneal damage"}, 10, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerTerm) == 0 {
		t.Fatal("no evaluated terms")
	}
	// Monotone precision growth across cutoffs.
	prev := 0.0
	for _, k := range Cutoffs {
		p := res.PrecisionAt[k]
		if p < prev {
			t.Errorf("P@%d = %v < previous %v", k, p, prev)
		}
		if p < 0 || p > 1 {
			t.Errorf("P@%d = %v out of range", k, p)
		}
		prev = p
	}
	// The fixture is easy: at least one candidate finds a gold
	// relative in the top 10.
	if res.PrecisionAt[10] == 0 {
		t.Error("P@10 = 0 on easy fixture")
	}
	if res.MRR < 0 || res.MRR > 1 {
		t.Errorf("MRR = %v", res.MRR)
	}
}

func TestEvaluateEmptyCandidates(t *testing.T) {
	o, c := fixture()
	if _, err := Evaluate(o, c, nil, 10, DefaultOptions()); err == nil {
		t.Error("empty candidate list accepted")
	}
	if _, err := Evaluate(o, c, []string{"missing everywhere"}, 10, DefaultOptions()); err == nil {
		t.Error("all-skipped evaluation should error")
	}
}

func TestPickRecentTerms(t *testing.T) {
	m := synth.GenerateMesh(synth.DefaultMeshOptions())
	copts := synth.DefaultCorpusOptions()
	copts.DocsPerConcept = 2
	c := synth.GenerateMeshCorpus(m, copts)
	picked := PickRecentTerms(m.Ontology, c, 10)
	if len(picked) != 10 {
		t.Fatalf("picked %d terms", len(picked))
	}
	seen := map[string]bool{}
	for _, term := range picked {
		if seen[term] {
			t.Errorf("duplicate pick %q", term)
		}
		seen[term] = true
		if !m.Ontology.HasTerm(term) {
			t.Errorf("picked term %q not in ontology", term)
		}
		if c.TF(term) == 0 {
			t.Errorf("picked term %q not in corpus", term)
		}
	}
}

func TestEndToEndOnSyntheticMesh(t *testing.T) {
	if testing.Short() {
		t.Skip("synthetic mesh evaluation is slow")
	}
	m := synth.GenerateMesh(synth.DefaultMeshOptions())
	copts := synth.DefaultCorpusOptions()
	copts.DocsPerConcept = 4
	c := synth.GenerateMeshCorpus(m, copts)
	cands := PickRecentTerms(m.Ontology, c, 8)
	res, err := Evaluate(m.Ontology, c, cands, 10, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// The shape requirement of Table 4: precision grows with the
	// cutoff and is well away from zero at 10.
	if res.PrecisionAt[10] < res.PrecisionAt[1] {
		t.Error("precision not monotone")
	}
	if res.PrecisionAt[10] == 0 {
		t.Error("P@10 = 0 on synthetic mesh")
	}
}

// proposeReference is ProposeContext as it was before it took the
// candidate's contexts from its caller: the candidate's vector is its
// ContextVector, its neighbours come from the per-occurrence scan and
// each pool term is scored with Cosine.
func proposeReference(c *corpus.Corpus, o *ontology.Ontology, opts Options, candidate string, topN int) ([]Proposal, error) {
	cand := textutil.NormalizeTerm(candidate)
	candVec := c.ContextVector(cand, corpus.ContextWindow)
	if len(candVec) == 0 {
		return nil, fmt.Errorf("linkage: candidate %q has no corpus contexts", candidate)
	}
	neighbors := scanPerOccurrence(c, o, cand)
	if len(neighbors) == 0 {
		return nil, fmt.Errorf("linkage: candidate %q co-occurs with no ontology term", candidate)
	}
	pool := make(map[string]Proposal)
	add := func(id ontology.ConceptID, rel Relation) {
		for _, t := range o.Concept(id).Terms() {
			if _, ok := pool[t]; !ok && t != cand {
				pool[t] = Proposal{Where: t, Concept: id, Relation: rel}
			}
		}
	}
	for _, nb := range neighbors {
		for _, id := range o.ConceptsForTerm(nb) {
			add(id, Neighbor)
			for _, p := range o.Concept(id).Parents {
				if opts.ExpandFathers {
					add(p, Father)
				}
			}
			for _, ch := range o.Concept(id).Children {
				if opts.ExpandSons {
					add(ch, Son)
				}
			}
		}
	}
	props := make([]Proposal, 0, len(pool))
	for t, p := range pool {
		if v := c.ContextVector(t, corpus.ContextWindow); len(v) > 0 {
			p.Cosine = candVec.Cosine(v)
			props = append(props, p)
		}
	}
	sort.Slice(props, func(i, j int) bool {
		if props[i].Cosine != props[j].Cosine {
			return props[i].Cosine > props[j].Cosine
		}
		return props[i].Where < props[j].Where
	})
	if topN > 0 && topN < len(props) {
		props = props[:topN]
	}
	return props, nil
}

// TestProposeFromHarvestMatchesReference: the harvest a caller hands
// ProposeContext counts, summed, exactly the candidate's
// ContextVector, and ProposeContext proposes what the reference does
// (or fails with its error) for one-word, multi-word, ontology-term,
// absent candidates and one whose windows hold no content word.
func TestProposeFromHarvestMatchesReference(t *testing.T) {
	o, c := fixture()
	c = c.Clone()
	c.AppendBuild([]corpus.Document{{ID: "9", Text: "It was the zzz of 12 and 34."}})
	if n := len(c.Contexts("zzz", corpus.ContextWindow)); n != 1 {
		t.Fatalf("zzz has %d contexts, want 1", n)
	}
	reduced := synth.HoldOut(o, "corneal injuries")
	proposed := 0
	for _, cand := range []string{
		"corneal injuries", "Corneal  Injuries", "corneal", "epithelium scarring", "membrane grafts",
		"eye injuries", "bone fracture", "zzz", "nonexistent term",
	} {
		contexts := c.Contexts(cand, corpus.ContextWindow)
		sum := sparse.New(0)
		for _, cw := range contexts {
			for _, w := range cw.Words {
				sum[w]++
			}
		}
		vec := c.ContextVector(cand, corpus.ContextWindow)
		if len(sum) != len(vec) {
			t.Fatalf("%q: harvest counts %v, ContextVector %v", cand, sum, vec)
		}
		for w, n := range vec {
			if math.Float64bits(sum[w]) != math.Float64bits(n) {
				t.Fatalf("%q: harvest counts %q %v times, ContextVector %v", cand, w, sum[w], n)
			}
		}
		for _, opts := range []Options{DefaultOptions(), {}} {
			got, err := New(c, reduced, opts).ProposeContext(context.Background(), cand, contexts, 10)
			want, wantErr := proposeReference(c, reduced, opts, cand, 10)
			if fmt.Sprint(err) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
				t.Fatalf("%q %+v: ProposeContext = %v, %v; reference %v, %v", cand, opts, got, err, want, wantErr)
			}
			if len(got) > 1 {
				proposed++
			}
		}
	}
	if proposed < 10 {
		t.Errorf("%d of 18 proposal lists hold more than one position, want 10 or more", proposed)
	}
}
