package synth

import (
	"fmt"
	"math/rand"
	"strings"

	"bioenrich/internal/corpus"
	"bioenrich/internal/ontology"
	"bioenrich/internal/textutil"
)

// CorpusOptions configures the PubMed-like corpus generator.
type CorpusOptions struct {
	Seed int64
	// Lang selects the corpus language: the stopword/function-word
	// inventory interleaved between content words, and the language
	// the produced corpus is indexed under. Pseudo-words themselves
	// are language-neutral Greco-Latin morphology, as real biomedical
	// terminology largely is.
	Lang            textutil.Lang
	DocsPerConcept  int     // abstracts generated per concept
	SentencesPerDoc int     // sentences per abstract
	SentenceLen     int     // words per sentence (before the term mention)
	TopicShare      float64 // probability a word is topical rather than background
	NeighborShare   float64 // probability a sentence also mentions a parent/child term
	// RandomMentionShare is the probability that a sentence also
	// mentions a term of a random unrelated concept — PubMed abstracts
	// routinely cite distant MeSH headings, which pollutes every
	// term's co-occurrence neighborhood with distractors.
	RandomMentionShare float64
	BackgroundSize     int     // background vocabulary size
	BackgroundZipfS    float64 // background Zipf exponent
}

// DefaultCorpusOptions returns the experiment configuration.
func DefaultCorpusOptions() CorpusOptions {
	return CorpusOptions{
		Seed:               2,
		DocsPerConcept:     6,
		SentencesPerDoc:    5,
		SentenceLen:        14,
		TopicShare:         0.6,
		NeighborShare:      0.45,
		RandomMentionShare: 0.1,
		BackgroundSize:     800,
		BackgroundZipfS:    1.1,
	}
}

// GenerateMeshCorpus writes a PubMed-like corpus for the generated
// mesh: every concept receives DocsPerConcept abstracts whose sentences
// mention the concept's terms, sample from the concept's topic, and
// occasionally mention a parent or child term (so that step IV's term
// co-occurrence graph connects candidates to their ontological
// neighborhood, as PubMed does for real MeSH terms).
func GenerateMeshCorpus(m *Mesh, opts CorpusOptions) *corpus.Corpus {
	r := rand.New(rand.NewSource(opts.Seed))
	bg := NewTopic(NewWordGen(opts.Seed+7).Words(opts.BackgroundSize), opts.BackgroundZipfS)
	c := corpus.New(opts.Lang)

	allIDs := m.Ontology.ConceptIDs()
	docID := 0
	for _, id := range m.Ontology.ConceptIDs() {
		con := m.Ontology.Concept(id)
		topic := m.Topics[id]
		// Neighbor terms: parents' and children's lexicalizations.
		var neighborTerms []string
		for _, p := range con.Parents {
			neighborTerms = append(neighborTerms, m.Ontology.Concept(p).Terms()...)
		}
		for _, ch := range con.Children {
			neighborTerms = append(neighborTerms, m.Ontology.Concept(ch).Terms()...)
		}
		for d := 0; d < opts.DocsPerConcept; d++ {
			docID++
			var sb strings.Builder
			for s := 0; s < opts.SentencesPerDoc; s++ {
				words := sampleSentence(r, topic, bg, opts)
				// Insert one of the concept's terms mid-sentence.
				terms := con.Terms()
				term := terms[r.Intn(len(terms))]
				pos := 1 + r.Intn(len(words))
				sentence := append(append(append([]string{}, words[:pos]...), term), words[pos:]...)
				// Maybe mention a neighbor term too.
				if len(neighborTerms) > 0 && r.Float64() < opts.NeighborShare {
					nt := neighborTerms[r.Intn(len(neighborTerms))]
					at := 1 + r.Intn(len(sentence))
					sentence = append(append(append([]string{}, sentence[:at]...), nt), sentence[at:]...)
				}
				// And maybe a random unrelated concept's term.
				if r.Float64() < opts.RandomMentionShare {
					other := m.Ontology.Concept(allIDs[r.Intn(len(allIDs))])
					ot := other.Terms()[r.Intn(len(other.Terms()))]
					at := 1 + r.Intn(len(sentence))
					sentence = append(append(append([]string{}, sentence[:at]...), ot), sentence[at:]...)
				}
				sb.WriteString(strings.Join(sentence, " "))
				sb.WriteString(". ")
			}
			c.Add(corpus.Document{
				ID:    fmt.Sprintf("pm%06d", docID),
				Title: con.Preferred,
				Text:  sb.String(),
			})
		}
	}
	c.Build()
	return c
}

// functionWordsByLang are interleaved between content words so that
// random content-word adjacencies (which never form terms) are broken
// up the way real prose breaks them with prepositions and determiners.
var functionWordsByLang = map[textutil.Lang][]string{
	textutil.English: {"of", "the", "in", "and", "with", "for", "by", "to", "a", "on"},
	textutil.French:  {"de", "la", "le", "les", "et", "dans", "avec", "pour", "par", "une"},
	textutil.Spanish: {"de", "la", "el", "los", "y", "en", "con", "para", "por", "una"},
}

// sampleSentence draws SentenceLen content words mixing topic and
// background, interleaving function words of the corpus language.
func sampleSentence(r *rand.Rand, topic, bg *Topic, opts CorpusOptions) []string {
	fw := functionWordsByLang[opts.Lang]
	words := make([]string, 0, opts.SentenceLen*3/2)
	for i := 0; i < opts.SentenceLen; i++ {
		if topic != nil && r.Float64() < opts.TopicShare {
			words = append(words, topic.Sample(r))
		} else {
			words = append(words, bg.Sample(r))
		}
		if r.Float64() < 0.55 {
			words = append(words, fw[r.Intn(len(fw))])
		}
	}
	return words
}

// HoldOut returns a clone of the ontology with the given term removed
// — the step IV evaluation protocol (remove a term known to belong,
// then ask the linker where it goes).
func HoldOut(o *ontology.Ontology, term string) *ontology.Ontology {
	out := o.Clone()
	out.RemoveTerm(term)
	return out
}
