// Package relext implements the paper's stated perspective ("A
// perspective of this work is to extract the type of relations. This
// could be performed with the linguistic patterns (e.g. the verbs used
// between two terms) and the associated contexts."): typed relation
// extraction between candidate terms from lexico-syntactic patterns —
// Hearst-style hypernymy patterns and verb lexicons for causal,
// therapeutic and preventive relations.
package relext

import (
	"fmt"
	"sort"
	"strings"

	"bioenrich/internal/corpus"
	"bioenrich/internal/textutil"
)

// RelationType labels a typed relation between two terms.
type RelationType string

// The extractable relation types. Association is the fallback when
// two terms co-occur with a connecting verb that matches no typed
// lexicon.
const (
	Hypernym   RelationType = "hypernym" // A is-a B
	Causes     RelationType = "causes"   // A causes B
	Treats     RelationType = "treats"   // A treats B
	Prevents   RelationType = "prevents" // A prevents B
	Associated RelationType = "associated"
)

// Relation is one extracted, aggregated relation.
type Relation struct {
	A, B     string // normalized terms; direction is A -> B
	Type     RelationType
	Evidence int      // number of supporting sentences
	Verbs    []string // connecting verbs observed (sorted, deduplicated)
	Example  string   // one supporting sentence
}

// String renders "A --type--> B (n)".
func (r Relation) String() string {
	return fmt.Sprintf("%s --%s--> %s (%d)", r.A, r.Type, r.B, r.Evidence)
}

// Extractor finds typed relations between the given vocabulary terms.
type Extractor struct {
	vocab map[string]bool // normalized terms to connect
	lang  textutil.Lang
	// maxGap is the maximum token distance between the two term
	// mentions for a pattern to apply.
	maxGap int
}

// NewExtractor builds an extractor over a term vocabulary (typically
// step I's candidates plus the ontology's terms).
func NewExtractor(vocab []string, lang textutil.Lang) *Extractor {
	v := make(map[string]bool, len(vocab))
	for _, t := range vocab {
		if nt := textutil.NormalizeTerm(t); nt != "" {
			v[nt] = true
		}
	}
	return &Extractor{vocab: v, lang: lang, maxGap: 6}
}

// mention is one vocabulary term located in a token stream.
type mention struct {
	term       string
	start, end int // token span [start, end)
}

// findMentions locates all vocabulary terms (longest match first, no
// overlaps) in a normalized token slice.
func (e *Extractor) findMentions(tokens []string) []mention {
	var out []mention
	i := 0
	for i < len(tokens) {
		matched := false
		for n := 4; n >= 1; n-- { // longest match wins
			if i+n > len(tokens) {
				continue
			}
			gram := strings.Join(tokens[i:i+n], " ")
			if e.vocab[gram] {
				out = append(out, mention{term: gram, start: i, end: i + n})
				i += n
				matched = true
				break
			}
		}
		if !matched {
			i++
		}
	}
	return out
}

// evidence is one matched pattern instance before aggregation.
type evidence struct {
	a, b     string
	typ      RelationType
	verb     string
	sentence string
}

func (e *Extractor) sentenceEvidence(sentence string) []evidence {
	raw := textutil.Words(sentence)
	tokens := make([]string, len(raw))
	for i, w := range raw {
		tokens[i] = textutil.Normalize(w)
	}
	mentions := e.findMentions(tokens)
	var evs []evidence
	for i := 0; i < len(mentions); i++ {
		for j := i + 1; j < len(mentions); j++ {
			a, b := mentions[i], mentions[j]
			if a.term == b.term {
				continue
			}
			gap := tokens[a.end:b.start]
			if len(gap) == 0 || len(gap) > e.maxGap {
				continue
			}
			if ev, ok := matchGap(a.term, b.term, gap, sentence); ok {
				evs = append(evs, ev)
			}
		}
	}
	return evs
}

// Extract scans every document of the corpus and returns the
// aggregated relations sorted by evidence (descending).
func (e *Extractor) Extract(c *corpus.Corpus) []Relation {
	var evs []evidence
	for d := 0; d < c.NumDocs(); d++ {
		doc := c.Doc(d)
		for _, s := range textutil.Sentences(doc.Title + ". " + doc.Text) {
			evs = append(evs, e.sentenceEvidence(s)...)
		}
	}
	return aggregate(evs)
}

// aggregate groups evidence by (A, B, Type).
func aggregate(evs []evidence) []Relation {
	type key struct {
		a, b string
		typ  RelationType
	}
	byKey := map[key]*Relation{}
	verbSets := map[key]map[string]bool{}
	for _, ev := range evs {
		k := key{a: ev.a, b: ev.b, typ: ev.typ}
		r := byKey[k]
		if r == nil {
			r = &Relation{A: ev.a, B: ev.b, Type: ev.typ, Example: ev.sentence}
			byKey[k] = r
			verbSets[k] = map[string]bool{}
		}
		r.Evidence++
		if ev.verb != "" {
			verbSets[k][ev.verb] = true
		}
	}
	out := make([]Relation, 0, len(byKey))
	for k, r := range byKey {
		for v := range verbSets[k] {
			r.Verbs = append(r.Verbs, v)
		}
		sort.Strings(r.Verbs)
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Evidence != out[j].Evidence {
			return out[i].Evidence > out[j].Evidence
		}
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		if out[i].B != out[j].B {
			return out[i].B < out[j].B
		}
		return out[i].Type < out[j].Type
	})
	return out
}
