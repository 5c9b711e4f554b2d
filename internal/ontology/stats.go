package ontology

import "sort"

// PolysemyStats counts terms by their number of senses, reproducing the
// shape of the paper's Table 1 ("Details of Polysemic Terms in UMLS and
// MeSH"). Keys are sense counts (2, 3, 4, ...); monosemic terms are
// reported under key 1.
func (o *Ontology) PolysemyStats() map[int]int {
	stats := make(map[int]int)
	for _, ids := range o.byTerm {
		stats[len(ids)]++
	}
	return stats
}

// PolysemicTerms returns all terms with at least 2 senses, sorted.
func (o *Ontology) PolysemicTerms() []string {
	var out []string
	for t, ids := range o.byTerm {
		if len(ids) >= 2 {
			out = append(out, t)
		}
	}
	sort.Strings(out)
	return out
}

// MonosemicTerms returns all terms with exactly 1 sense, sorted.
func (o *Ontology) MonosemicTerms() []string {
	var out []string
	for t, ids := range o.byTerm {
		if len(ids) == 1 {
			out = append(out, t)
		}
	}
	sort.Strings(out)
	return out
}

// RelatedTerms returns the gold-standard paradigmatic relatives of a
// term: its synonyms (other lexicalizations of its concepts), the
// terms of its father concepts and of its son concepts. Step IV's
// evaluation counts a proposal correct iff it appears in this set.
func (o *Ontology) RelatedTerms(term string) map[string]bool {
	out := make(map[string]bool)
	for _, id := range o.ConceptsForTerm(term) {
		c := o.concepts[id]
		for _, t := range c.Terms() {
			out[t] = true
		}
		for _, p := range c.Parents {
			for _, t := range o.concepts[p].Terms() {
				out[t] = true
			}
		}
		for _, ch := range c.Children {
			for _, t := range o.concepts[ch].Terms() {
				out[t] = true
			}
		}
	}
	delete(out, term)
	return out
}
