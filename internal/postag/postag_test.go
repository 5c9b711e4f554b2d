package postag

import (
	"slices"
	"strings"
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
	tagged := tagSentence(tg, "The severe corneal injury")
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

// tagSentence tokenizes and tags raw sentence text.
func tagSentence(tg *Tagger, text string) []TaggedWord {
	return tg.Tag(textutil.Words(text))
}

// extractCandidates tags raw sentence text and returns its candidate
// spans' terms, each span's words joined by spaces.
func extractCandidates(text string, tg *Tagger) []string {
	tagged := tagSentence(tg, text)
	var terms []string
	for _, c := range Candidates(nil, tagged, tg.lang) {
		var words []string
		for _, tw := range tagged[c.Start : c.Start+c.Len] {
			words = append(words, tw.Word)
		}
		terms = append(terms, strings.Join(words, " "))
	}
	return terms
}

func hasCandidate(terms []string, term string) bool {
	return slices.Contains(terms, term)
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
	cands := Candidates(nil, tagSentence(tg, "severe injury"), tg.lang)
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	for _, c := range cands {
		if c.Start < 0 || c.Len < 1 || c.Start+c.Len > 2 {
			t.Errorf("bad span: %+v", c)
		}
	}
}

// TestCandidatesAppend: Candidates appends to the caller's slice and
// keeps what was there.
func TestCandidatesAppend(t *testing.T) {
	tg := NewTagger(textutil.English)
	tagged := tagSentence(tg, "severe corneal injury")
	fresh := Candidates(nil, tagged, tg.lang)
	prefix := []Candidate{{Start: 7, Len: 1}}
	got := Candidates(prefix, tagged, tg.lang)
	if !slices.Equal(got, append([]Candidate{{Start: 7, Len: 1}}, fresh...)) {
		t.Errorf("Candidates(prefix) = %v, want %v after the prefix", got, fresh)
	}
}

func TestCandidatesLengthBound(t *testing.T) {
	tg := NewTagger(textutil.English)
	tagged := tagSentence(tg,
		"acute severe chronic bilateral corneal epithelial stromal injury")
	cands := Candidates(nil, tagged, tg.lang)
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	for _, c := range cands {
		if c.Len > MaxTermWords {
			t.Errorf("candidate too long: %+v", c)
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
