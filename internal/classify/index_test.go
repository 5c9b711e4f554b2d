package classify

import (
	"context"
	"math"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"bioenrich/internal/corpus"
	"bioenrich/internal/loadtest"
	"bioenrich/internal/sparse"
	"bioenrich/internal/state"
	"bioenrich/internal/synth"
	"bioenrich/internal/textutil"
)

// mapProfile builds a concept's profile as one map, the way the index
// used to hold it: the sum of ContextVector over the concept's terms,
// normalized.
func mapProfile(snap *state.Snapshot, i int, idx *index) sparse.Vector {
	v := sparse.New(0)
	for _, term := range snap.Ontology.Concept(idx.ids[i]).Terms() {
		v.Add(snap.Corpus.ContextVector(term, corpus.ContextWindow))
	}
	v.Normalize()
	return v
}

// TestIndexMatchesMapProfiles pins the inverted index to the map
// profiles it replaced: its postings hold exactly each profile's unit
// weights, concepts ascending within every word, its norms are the
// profiles' Norms, and every score is docVec.Cosine(profile) bit for
// bit. The mesh gets one concept whose terms never occur in the
// corpus, so one profile is empty. The texts hold words the corpus
// lacks, repeated words, corpus documents and benchmark-shaped
// generated text.
func TestIndexMatchesMapProfiles(t *testing.T) {
	mopts := synth.DefaultMeshOptions()
	mopts.Seed = 42
	mopts.Branches, mopts.Depth = 2, 2
	mesh := synth.GenerateMesh(mopts)
	copts := synth.DefaultCorpusOptions()
	copts.Seed = 43
	copts.DocsPerConcept = 3
	c := synth.GenerateMeshCorpus(mesh, copts)
	o := mesh.Ontology.Clone()
	if _, err := o.AddConcept("Z999", "zyxqv unseen"); err != nil {
		t.Fatal(err)
	}
	snap := state.NewStore(c, o).Load()
	idx, err := build(context.TODO(), snap)
	if err != nil {
		t.Fatal(err)
	}

	profiles := make([]sparse.Vector, len(idx.ids))
	fromPostings := make([]sparse.Vector, len(idx.ids))
	for i := range profiles {
		profiles[i] = mapProfile(snap, i, idx)
		fromPostings[i] = sparse.Vector{}
	}
	if z := slices.Index(idx.ids, "Z999"); len(profiles[z]) != 0 || idx.norms[z] != 0 {
		t.Fatalf("Z999: profile of %d words, norm %v; want empty", len(profiles[z]), idx.norms[z])
	}
	for word, s := range idx.slots {
		ps := idx.postings[idx.start[s]:idx.start[s+1]]
		for j, p := range ps {
			if j > 0 && p.Row <= ps[j-1].Row {
				t.Fatalf("postings of %q not in ascending concept order: %v", word, ps)
			}
			fromPostings[p.Row][word] = p.Weight
		}
	}
	for i, p := range profiles {
		if !reflect.DeepEqual(fromPostings[i], p) {
			t.Fatalf("concept %s: postings hold %d weights, map profile %d, or a weight differs",
				idx.ids[i], len(fromPostings[i]), len(p))
		}
		if math.Float64bits(idx.norms[i]) != math.Float64bits(p.Norm()) {
			t.Fatalf("concept %s: norm %v, map profile's Norm %v", idx.ids[i], idx.norms[i], p.Norm())
		}
	}

	texts := []string{
		"zyxqv quorblat frindle", // no word in any profile
		strings.Repeat(c.Documents()[0].Text+" ", 3),
	}
	gen := loadtest.NewGen(mopts.Seed, 400, 0)
	for i := 0; i < 40; i++ {
		text := gen.Text(30)
		texts = append(texts, text, text+" "+text)
	}
	for _, d := range c.Documents() {
		texts = append(texts, d.Text)
	}
	for _, text := range texts {
		docVec := sparse.FromCounts(textutil.ContentWords(text, c.Lang()))
		scores := docVec.InvertedCosines(idx.lookup, idx.norms)
		for i, p := range profiles {
			if want := docVec.Cosine(p); math.Float64bits(scores[i]) != math.Float64bits(want) {
				t.Fatalf("%.60q against %s: index %v (%#x), Cosine %v (%#x)", text, idx.ids[i],
					scores[i], math.Float64bits(scores[i]), want, math.Float64bits(want))
			}
		}
		checkRank(t, scores)
	}
}

// TestRankMatchesFullSort checks rank on scores with ties, zeros and
// negatives; TestIndexMatchesMapProfiles runs the same check on real
// scores.
func TestRankMatchesFullSort(t *testing.T) {
	checkRank(t, []float64{0.5, 0, 0.25, 0.5, -0.1, 0.75, 0.25, 0.5, 1, 0, 0.75, 0.125})
	checkRank(t, []float64{0, -1})
	checkRank(t, nil)
}

// checkRank requires rank(scores, n), for every n from 0 to
// len(scores)+1, to be the positive scores' indices fully sorted —
// score descending, then index ascending — and cut to n when
// 0 < n < their number.
func checkRank(t *testing.T, scores []float64) {
	t.Helper()
	var want []int
	for i, s := range scores {
		if s > 0 {
			want = append(want, i)
		}
	}
	sort.SliceStable(want, func(a, b int) bool { return scores[want[a]] > scores[want[b]] })
	for n := 0; n <= len(scores)+1; n++ {
		w := want
		if n > 0 && n < len(w) {
			w = w[:n]
		}
		if got := rank(scores, n); !slices.Equal(got, w) {
			t.Fatalf("rank(%v, %d) = %v, want %v", scores, n, got, w)
		}
	}
}
