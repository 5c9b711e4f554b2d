package postag

import (
	"testing"

	"bioenrich/internal/textutil"
)

func TestTagWordEnglish(t *testing.T) {
	tg := NewTagger(textutil.English)
	cases := []struct {
		word string
		want Tag
	}{
		{"the", Determiner},
		{"of", Preposition},
		{"and", Conjunction},
		{"is", Verb},
		{"severe", Adjective},
		{"infection", Noun},    // -tion suffix
		{"keratitis", Noun},    // -itis suffix
		{"fibrosis", Noun},     // -osis suffix
		{"carcinoma", Noun},    // -oma suffix
		{"chronic", Adjective}, // lexicon
		{"systematically", Adverb},
		{"42", Number},
		{"cornea", Noun}, // default
		{"", Other},
	}
	for _, c := range cases {
		if got := tg.TagWord(c.word); got != c.want {
			t.Errorf("TagWord(%q) = %v, want %v", c.word, got, c.want)
		}
	}
}

func TestTagWordFrench(t *testing.T) {
	tg := NewTagger(textutil.French)
	cases := []struct {
		word string
		want Tag
	}{
		{"le", Determiner},
		{"de", Preposition},
		{"maladie", Noun},
		{"chronique", Adjective},
		{"infection", Noun},
	}
	for _, c := range cases {
		if got := tg.TagWord(c.word); got != c.want {
			t.Errorf("fr TagWord(%q) = %v, want %v", c.word, got, c.want)
		}
	}
}

func TestTagWordSpanish(t *testing.T) {
	tg := NewTagger(textutil.Spanish)
	cases := []struct {
		word string
		want Tag
	}{
		{"el", Determiner},
		{"de", Preposition},
		{"enfermedad", Noun}, // -idad
		{"cronica", Adjective},
		{"rapidamente", Adverb},
	}
	for _, c := range cases {
		if got := tg.TagWord(c.word); got != c.want {
			t.Errorf("es TagWord(%q) = %v, want %v", c.word, got, c.want)
		}
	}
}

func TestTagSentence(t *testing.T) {
	tg := NewTagger(textutil.English)
	tagged := tg.TagSentence("The severe corneal injury")
	if len(tagged) != 4 {
		t.Fatalf("tagged = %v", tagged)
	}
	wantTags := []Tag{Determiner, Adjective, Adjective, Noun}
	for i, w := range tagged {
		if w.Tag != wantTags[i] {
			t.Errorf("tag[%d] (%s) = %v, want %v", i, w.Word, w.Tag, wantTags[i])
		}
	}
}

func TestTagString(t *testing.T) {
	if Noun.String() != "NN" || Adjective.String() != "JJ" || Other.String() != "XX" {
		t.Error("Tag.String mismatch")
	}
}

// extractCandidates tags raw sentence text and extracts its candidates.
func extractCandidates(text string, tg *Tagger) []Candidate {
	return Candidates(tg.TagSentence(text), tg.lang)
}

func hasCandidate(cands []Candidate, term string) bool {
	for _, c := range cands {
		if c.Term() == term {
			return true
		}
	}
	return false
}

func TestCandidatesEnglish(t *testing.T) {
	tg := NewTagger(textutil.English)
	cands := extractCandidates("The severe corneal injury affected the eye", tg)
	for _, want := range []string{
		"severe corneal injury", "corneal injury", "injury", "eye",
	} {
		if !hasCandidate(cands, want) {
			t.Errorf("missing candidate %q in %v", want, cands)
		}
	}
	// Determiner-initial and verb-containing spans are rejected.
	for _, bad := range []string{"the severe corneal injury", "injury affected"} {
		if hasCandidate(cands, bad) {
			t.Errorf("invalid candidate %q extracted", bad)
		}
	}
}

func TestCandidatesNoStopwordEdges(t *testing.T) {
	tg := NewTagger(textutil.English)
	cands := extractCandidates("treatment of infection", tg)
	if !hasCandidate(cands, "treatment") || !hasCandidate(cands, "infection") {
		t.Errorf("missing unigrams: %v", cands)
	}
	// "of" is a preposition: English pattern has no IN, so the full
	// span is rejected.
	if hasCandidate(cands, "treatment of infection") {
		t.Errorf("english IN-pattern should not match: %v", cands)
	}
}

func TestCandidatesFrenchPrepPattern(t *testing.T) {
	tg := NewTagger(textutil.French)
	cands := extractCandidates("la maladie de crohn est chronique", tg)
	if !hasCandidate(cands, "maladie de crohn") {
		t.Errorf("missing 'maladie de crohn' in %v", cands)
	}
	if !hasCandidate(cands, "maladie") {
		t.Errorf("missing 'maladie' in %v", cands)
	}
}

func TestCandidatesFrenchPostAdjective(t *testing.T) {
	tg := NewTagger(textutil.French)
	cands := extractCandidates("une infection bacterienne severe", tg)
	if !hasCandidate(cands, "infection bacterienne") {
		t.Errorf("missing 'infection bacterienne' in %v", cands)
	}
}

func TestCandidatesSpanish(t *testing.T) {
	tg := NewTagger(textutil.Spanish)
	cands := extractCandidates("la enfermedad cronica del corazon", tg)
	if !hasCandidate(cands, "enfermedad cronica") {
		t.Errorf("missing 'enfermedad cronica' in %v", cands)
	}
}

func TestCandidateStartOffsets(t *testing.T) {
	tg := NewTagger(textutil.English)
	cands := extractCandidates("severe injury", tg)
	for _, c := range cands {
		if c.Start < 0 || c.Start+len(c.Words) > 2 {
			t.Errorf("bad span: %+v", c)
		}
	}
}

func TestCandidatesLengthBound(t *testing.T) {
	tg := NewTagger(textutil.English)
	cands := extractCandidates(
		"acute severe chronic bilateral corneal epithelial stromal injury", tg)
	for _, c := range cands {
		if len(c.Words) > MaxTermWords {
			t.Errorf("candidate too long: %v", c.Words)
		}
	}
}

func TestValidSpanEmpty(t *testing.T) {
	if validSpan(nil, textutil.English) {
		t.Error("empty span must be invalid")
	}
	if validSpan(make([]Tag, MaxTermWords+1), textutil.English) {
		t.Error("overlong span must be invalid")
	}
}
