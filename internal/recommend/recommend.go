// Package recommend scores which hosted ontology best covers an input
// corpus, after NCBO Ontology Recommender 2.0 (arXiv:1611.05973): each
// candidate gets a weighted sum of coverage (how much of the input's
// token mass its terms annotate), acceptance (a structural proxy for
// how well-curated the ontology is), and detail (how specific the
// matched concepts are). The ranking routes work — a server can aim an
// enrichment job at the top-ranked entry instead of making the client
// guess.
//
// Scoring reads only immutable snapshots, one candidate after another,
// and the final sort breaks ties by name, so the ranking is
// byte-identical from run to run.
package recommend

import (
	"context"
	"fmt"
	"math"
	"sort"

	"bioenrich/internal/ontology"
	"bioenrich/internal/state"
	"bioenrich/internal/textutil"
)

// Metric names the server uses for recommend traffic, exported so
// exposition tests can pin them.
const (
	// RequestsMetric counts recommend requests.
	RequestsMetric = "bioenrich_recommend_requests_total"
	// SecondsMetric is the recommend latency histogram.
	SecondsMetric = "bioenrich_recommend_seconds"
)

// The score's mixing weights mirror the emphasis of NCBO Recommender
// 2.0's annotation use case: coverage dominates, specificity second,
// curation quality third. They sum to 1, so the score stays in [0, 1].
const (
	coverageWeight   = 0.55
	acceptanceWeight = 0.15
	detailWeight     = 0.30
)

// maxGram bounds multi-word term matching: input token windows of
// 1..maxGram words are looked up, longest first, against each
// ontology's term index.
const maxGram = 4

// Options has no fields: Rank's weights and gram bound are the
// constants above. Callers pass Options{}.
type Options struct{}

// Input is one candidate ontology: a name (the registry entry) plus
// the snapshot to score against.
type Input struct {
	Name string
	Snap *state.Snapshot
}

// Score is one candidate's ranking entry.
type Score struct {
	// Ontology is the candidate's registry name.
	Ontology string `json:"ontology"`
	// Epoch is the snapshot version the score was computed from.
	Epoch uint64 `json:"epoch"`
	// Score is the weighted sum in [0, 1]; rankings sort on it
	// descending, ties broken by ascending name.
	Score float64 `json:"score"`
	// Coverage is the fraction of the input's content tokens annotated
	// by ontology terms (greedy longest-gram matching).
	Coverage float64 `json:"coverage"`
	// Acceptance is the structural curation proxy: linked fraction,
	// synonym fraction and log-scaled size, averaged.
	Acceptance float64 `json:"acceptance"`
	// Detail is the mean specificity of matched concepts (deeper in the
	// hierarchy → closer to 1).
	Detail float64 `json:"detail"`
	// MatchedTerms counts distinct ontology terms found in the input.
	MatchedTerms int `json:"matched_terms"`
	// MatchedTokens counts input tokens consumed by those matches.
	MatchedTokens int `json:"matched_tokens"`
	// TotalTokens is the coverage denominator: the input's content
	// (non-stopword) token count under the candidate's language.
	TotalTokens int `json:"total_tokens"`
}

// Rank scores text against every candidate and returns the ranking,
// best first. The result is never nil; an empty candidate set ranks to
// []. Text with no tokens is an input error.
func Rank(ctx context.Context, inputs []Input, text string, _ Options) ([]Score, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("recommend: %w", err)
	}
	tokens := normalizedTokens(text)
	if len(tokens) == 0 {
		return nil, fmt.Errorf("recommend: input has no tokens")
	}
	scores := make([]Score, len(inputs))
	for i, in := range inputs {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("recommend: %w", err)
		}
		scores[i] = scoreOne(in, tokens, text)
	}
	sort.Slice(scores, func(i, j int) bool {
		if scores[i].Score != scores[j].Score {
			return scores[i].Score > scores[j].Score
		}
		return scores[i].Ontology < scores[j].Ontology
	})
	return scores, nil
}

// normalizedTokens is the raw normalized word stream — stopwords kept,
// so multi-word ontology terms containing function words ("diseases of
// the eye") can still match as grams.
func normalizedTokens(text string) []string {
	words := textutil.Words(text)
	out := make([]string, 0, len(words))
	for _, w := range words {
		if n := textutil.Normalize(w); n != "" {
			out = append(out, n)
		}
	}
	return out
}

// scoreOne computes one candidate's sub-scores. Pure function of
// (input snapshot, tokens).
func scoreOne(in Input, tokens []string, text string) Score {
	o, c := in.Snap.Ontology, in.Snap.Corpus
	s := Score{Ontology: in.Name, Epoch: in.Snap.Epoch}
	s.TotalTokens = len(textutil.ContentWords(text, c.Lang()))

	matched := greedyMatch(o, tokens)
	s.MatchedTerms = len(matched.terms)
	s.MatchedTokens = matched.tokens

	if s.TotalTokens > 0 {
		s.Coverage = math.Min(1, float64(matched.tokens)/float64(s.TotalTokens))
	}
	s.Acceptance = acceptance(o)
	s.Detail = detail(o, matched.concepts)
	s.Score = coverageWeight*s.Coverage +
		acceptanceWeight*s.Acceptance +
		detailWeight*s.Detail
	return s
}

// matchResult accumulates greedy longest-gram matching output.
type matchResult struct {
	terms    []string             // distinct matched terms, first-seen order
	tokens   int                  // input tokens consumed by matches
	concepts []ontology.ConceptID // distinct matched concepts, sorted
}

// greedyMatch scans the token stream left to right, preferring the
// longest gram (up to maxGram words) present in the ontology's term
// index at each position — the standard annotator longest-match rule.
// Each position's longest gram is spelled once into one reused buffer,
// and every shorter gram there is a prefix of it, so the probes build
// no string; a gram becomes one only when it is a term seen for the
// first time.
func greedyMatch(o *ontology.Ontology, tokens []string) matchResult {
	var res matchResult
	seenTerm := map[string]bool{}
	seenConcept := map[ontology.ConceptID]bool{}
	var buf []byte
	var ends [maxGram + 1]int // ends[g] is the length of the g-word gram
	for i := 0; i < len(tokens); {
		g := min(maxGram, len(tokens)-i)
		buf = buf[:0]
		for n, tok := range tokens[i : i+g] {
			if n > 0 {
				buf = append(buf, ' ')
			}
			buf = append(buf, tok...)
			ends[n+1] = len(buf)
		}
		for g > 0 && !o.HasTermBytes(buf[:ends[g]]) {
			g--
		}
		if g == 0 {
			i++
			continue
		}
		gram := buf[:ends[g]]
		if !seenTerm[string(gram)] {
			term := string(gram)
			seenTerm[term] = true
			res.terms = append(res.terms, term)
			for _, id := range o.ConceptsForTerm(term) {
				if !seenConcept[id] {
					seenConcept[id] = true
					res.concepts = append(res.concepts, id)
				}
			}
		}
		res.tokens += g
		i += g
	}
	sort.Slice(res.concepts, func(a, b int) bool { return res.concepts[a] < res.concepts[b] })
	return res
}

// acceptance is a structural stand-in for NCBO's community-acceptance
// signal (which needs visit logs and UMLS membership we don't have):
// well-curated ontologies link their concepts into a hierarchy, carry
// synonyms, and have non-trivial size.
func acceptance(o *ontology.Ontology) float64 {
	n := o.NumConcepts()
	if n == 0 {
		return 0
	}
	linked, withSyn := o.CurationCounts()
	// log-scaled size: ~0.5 at 100 concepts, saturating toward 1 at 10k.
	size := math.Min(1, math.Log1p(float64(n))/math.Log1p(10000))
	return (float64(linked)/float64(n) + float64(withSyn)/float64(n) + size) / 3
}

// detail is the mean specificity of the matched concepts: a concept at
// hierarchy depth d contributes d/(d+1), so roots count 0 and deep
// leaves approach 1. No matches → 0.
func detail(o *ontology.Ontology, matched []ontology.ConceptID) float64 {
	if len(matched) == 0 {
		return 0
	}
	memo := map[ontology.ConceptID]int{}
	var sum float64
	for _, id := range matched {
		d := depth(o, id, memo)
		sum += float64(d) / float64(d+1)
	}
	return sum / float64(len(matched))
}

// depth returns the longest parent chain above id (roots are 0). The
// ontology enforces acyclicity, so the recursion terminates; memo makes
// repeated matches linear.
func depth(o *ontology.Ontology, id ontology.ConceptID, memo map[ontology.ConceptID]int) int {
	if d, ok := memo[id]; ok {
		return d
	}
	c := o.Concept(id)
	best := 0
	if c != nil {
		for _, p := range c.Parents {
			if d := depth(o, p, memo) + 1; d > best {
				best = d
			}
		}
	}
	memo[id] = best
	return best
}
