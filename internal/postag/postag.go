// Package postag provides the part-of-speech tagging substrate used by
// term extraction (step I). The paper's BIOTEX pipeline filters term
// candidates through syntactic patterns over POS tags (TreeTagger in
// the original); here a deterministic lexicon + suffix-rule tagger
// fills that role for English, French and Spanish.
package postag

import (
	"bioenrich/internal/textutil"
)

// Tag is a coarse part-of-speech category sufficient for candidate
// term patterns.
type Tag int

// The tagset. Biomedical term patterns only need to distinguish nouns,
// adjectives, prepositions and "everything else".
const (
	Noun Tag = iota
	Adjective
	Preposition
	Determiner
	Verb
	Adverb
	Pronoun
	Conjunction
	Number
	Other
)

// String returns the Penn-style shorthand of the tag.
func (t Tag) String() string {
	switch t {
	case Noun:
		return "NN"
	case Adjective:
		return "JJ"
	case Preposition:
		return "IN"
	case Determiner:
		return "DT"
	case Verb:
		return "VB"
	case Adverb:
		return "RB"
	case Pronoun:
		return "PR"
	case Conjunction:
		return "CC"
	case Number:
		return "CD"
	}
	return "XX"
}

// TaggedWord pairs a normalized word with its tag.
type TaggedWord struct {
	Word string
	Tag  Tag
}

// Tagger assigns POS tags to normalized tokens of one language.
type Tagger struct {
	lang    textutil.Lang
	lexicon map[string]Tag
	// suffix rules checked longest-first
	suffixes []suffixRule
}

type suffixRule struct {
	suffix string
	tag    Tag
}

// NewTagger builds the tagger for lang.
func NewTagger(lang textutil.Lang) *Tagger {
	t := &Tagger{lang: lang, lexicon: make(map[string]Tag)}
	switch lang {
	case textutil.French:
		t.load(frLexicon)
		t.suffixes = frSuffixes
	case textutil.Spanish:
		t.load(esLexicon)
		t.suffixes = esSuffixes
	default:
		t.load(enLexicon)
		t.suffixes = enSuffixes
	}
	return t
}

// load fills the lexicon in a fixed priority order so that a word
// listed under several tags deterministically keeps the
// highest-priority one (closed classes needed by the term patterns
// win; e.g. French "a" is both verb and preposition — preposition
// wins because the Romance pattern depends on it).
func (t *Tagger) load(src map[Tag][]string) {
	order := []Tag{
		Determiner, Preposition, Conjunction, Pronoun,
		Adverb, Adjective, Verb, Noun, Number, Other,
	}
	for _, tag := range order {
		for _, w := range src[tag] {
			n := textutil.Normalize(w)
			if _, exists := t.lexicon[n]; !exists {
				t.lexicon[n] = tag
			}
		}
	}
}

// TagWord tags a single normalized word. Resolution order: numeric
// check, lexicon, suffix rules, default Noun (biomedical abstracts are
// strongly noun-dominated, so Noun is the right open-class default).
func (t *Tagger) TagWord(word string) Tag {
	if word == "" {
		return Other
	}
	if textutil.IsNumeric(word) {
		return Number
	}
	if tag, ok := t.lexicon[word]; ok {
		return tag
	}
	for _, r := range t.suffixes {
		if len(word) > len(r.suffix)+2 && hasSuffix(word, r.suffix) {
			return r.tag
		}
	}
	return Noun
}

func hasSuffix(s, suf string) bool {
	return len(s) >= len(suf) && s[len(s)-len(suf):] == suf
}

// Tag tags a token sequence (tokens are normalized internally).
func (t *Tagger) Tag(tokens []string) []TaggedWord {
	out := make([]TaggedWord, len(tokens))
	for i, tok := range tokens {
		n := textutil.Normalize(tok)
		out[i] = TaggedWord{Word: n, Tag: t.TagWord(n)}
	}
	return out
}
