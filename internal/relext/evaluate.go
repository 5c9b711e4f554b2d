package relext

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"bioenrich/internal/corpus"
	"bioenrich/internal/eval"
	"bioenrich/internal/textutil"
)

// GoldRelation is a ground-truth relation for evaluation.
type GoldRelation struct {
	A, B string
	Type RelationType
}

// SynthOptions configures the relation-corpus generator.
type SynthOptions struct {
	Seed             int64
	Terms            int // vocabulary size (≥ 4)
	RelationsPerType int
	SentencesPerRel  int     // supporting sentences per gold relation
	DistractorShare  float64 // extra sentences mentioning pairs w/o a pattern
	// HardShare is the fraction of gold relations expressed only with
	// out-of-lexicon phrasings ("results in", "gives rise to"): these
	// are unrecoverable by the pattern extractor and bound its recall,
	// the way real abstracts bound the paper's proposed approach.
	HardShare float64
}

// DefaultSynthOptions returns the evaluation configuration.
func DefaultSynthOptions() SynthOptions {
	return SynthOptions{
		Seed: 6, Terms: 30, RelationsPerType: 10,
		SentencesPerRel: 3, DistractorShare: 0.5, HardShare: 0.2,
	}
}

// surface templates per relation type; {A}/{B} are replaced by terms.
var templates = map[RelationType][]string{
	Causes: {
		"{A} causes {B} in many patients.",
		"{A} often caused {B} during the trial.",
		"{B} is frequently caused by {A}.",
	},
	Treats: {
		"{A} treats {B} effectively.",
		"{A} treated {B} in the cohort.",
		"{A} relieves {B} within days.",
	},
	Prevents: {
		"{A} prevents {B} after exposure.",
		"{A} reduced {B} significantly.",
		"{A} inhibits {B} in vitro.",
	},
	Hypernym: {
		"{A} is a form of {B} seen in clinics.",
		"{B} such as {A} worsen outcomes.",
		"{A} and other {B} were recorded.",
	},
}

// distractorTemplates mention two terms without a relation pattern.
var distractorTemplates = []string{
	"{A} appeared near {B} in the registry without clear linkage today.",
	"{A} was measured while {B} remained under observation separately.",
}

// hardTemplates express real relations with verbs outside the
// extractor's lexicons.
var hardTemplates = map[RelationType][]string{
	Causes:   {"{A} results in {B} over time.", "{A} gives rise to {B}."},
	Treats:   {"{A} ameliorates {B} substantially.", "{A} resolves {B} quickly."},
	Prevents: {"{A} wards off {B} reliably.", "{A} staves off {B}."},
	Hypernym: {"{A} belongs to the family of {B}.", "{A} falls under {B}."},
}

// GenerateRelationCorpus builds a corpus expressing a known set of
// typed relations between pseudo-term pairs, plus distractor sentences.
// Returns the corpus, the vocabulary and the gold relations.
func GenerateRelationCorpus(opts SynthOptions) (*corpus.Corpus, []string, []GoldRelation) {
	r := rand.New(rand.NewSource(opts.Seed))
	// Vocabulary of single-word pseudo-terms (multi-word terms work
	// too; single words keep templates grammatical).
	wg := newWordList(opts.Seed+1, opts.Terms)
	var gold []GoldRelation
	c := corpus.New(textutil.English)
	docID := 0
	emit := func(text string) {
		docID++
		c.Add(corpus.Document{ID: fmt.Sprintf("rel%05d", docID), Text: text})
	}
	types := []RelationType{Causes, Treats, Prevents, Hypernym}
	used := map[string]bool{}
	for _, typ := range types {
		for i := 0; i < opts.RelationsPerType; i++ {
			a := wg[r.Intn(len(wg))]
			b := wg[r.Intn(len(wg))]
			pairKey := a + "|" + b
			if a == b || used[pairKey] {
				i--
				continue
			}
			used[pairKey] = true
			used[b+"|"+a] = true
			gold = append(gold, GoldRelation{A: a, B: b, Type: typ})
			tpls := templates[typ]
			if r.Float64() < opts.HardShare {
				tpls = hardTemplates[typ] // out-of-lexicon phrasing only
			}
			for s := 0; s < opts.SentencesPerRel; s++ {
				tpl := tpls[s%len(tpls)]
				emit(strings.ReplaceAll(strings.ReplaceAll(tpl, "{A}", a), "{B}", b))
			}
		}
	}
	nDistract := int(float64(docID) * opts.DistractorShare)
	for i := 0; i < nDistract; i++ {
		a := wg[r.Intn(len(wg))]
		b := wg[r.Intn(len(wg))]
		if a == b {
			continue
		}
		tpl := distractorTemplates[r.Intn(len(distractorTemplates))]
		emit(strings.ReplaceAll(strings.ReplaceAll(tpl, "{A}", a), "{B}", b))
	}
	c.Build()
	return c, wg, gold
}

func newWordList(seed int64, n int) []string {
	// Reuse the biomedical pseudo-word morphology from synth via a
	// local copy to avoid an import cycle (synth does not import
	// relext, and relext only needs plain unique words).
	r := rand.New(rand.NewSource(seed))
	prefixes := []string{"cardi", "derm", "hepat", "neur", "oste", "gastr",
		"pulmon", "nephr", "ocul", "cerebr", "angi", "arthr"}
	suffixes := []string{"itis", "osis", "oma", "pathy", "emia", "algia", "ine", "ase"}
	seen := map[string]bool{}
	var out []string
	for len(out) < n {
		w := prefixes[r.Intn(len(prefixes))] + "o" + suffixes[r.Intn(len(suffixes))]
		if seen[w] {
			w += string(rune('a' + len(out)%26))
		}
		if !seen[w] {
			seen[w] = true
			out = append(out, w)
		}
	}
	return out
}

// EvalResult aggregates extraction quality per relation type.
type EvalResult struct {
	PerType map[RelationType]eval.Confusion
	Overall eval.Confusion
}

// Evaluate runs the extractor against the generated gold: an extracted
// relation is a true positive when an identical (A, B, Type) triple is
// in the gold set; gold triples never extracted are false negatives.
// A cancelled ctx stops the extraction and returns its error.
func Evaluate(ctx context.Context, opts SynthOptions) (*EvalResult, error) {
	c, vocab, gold := GenerateRelationCorpus(opts)
	ext := NewExtractor(vocab, textutil.English)
	extracted, err := ext.Extract(ctx, c)
	if err != nil {
		return nil, err
	}

	goldSet := map[string]RelationType{}
	for _, g := range gold {
		goldSet[g.A+"|"+g.B] = g.Type
	}
	res := &EvalResult{PerType: map[RelationType]eval.Confusion{}}
	matched := map[string]bool{}
	for _, rel := range extracted {
		key := rel.A + "|" + rel.B
		correct := goldSet[key] == rel.Type
		conf := res.PerType[rel.Type]
		if correct {
			conf.TP++
			res.Overall.TP++
			matched[key] = true
		} else {
			conf.FP++
			res.Overall.FP++
		}
		res.PerType[rel.Type] = conf
	}
	for _, g := range gold {
		if !matched[g.A+"|"+g.B] {
			conf := res.PerType[g.Type]
			conf.FN++
			res.PerType[g.Type] = conf
			res.Overall.FN++
		}
	}
	if res.Overall.TP+res.Overall.FN == 0 {
		return nil, fmt.Errorf("relext: evaluation produced no gold relations")
	}
	return res, nil
}
