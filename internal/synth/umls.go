package synth

import (
	"fmt"
	"math"

	"bioenrich/internal/ontology"
	"bioenrich/internal/textutil"
)

// Table1Row holds the paper's Table 1 marginals for one vocabulary and
// language: the number of terms having exactly k senses (k = 2, 3, 4)
// and 5 or more (FivePlus), plus the total number of distinct terms.
type Table1Row struct {
	Vocabulary string // "UMLS" or "MeSH"
	Lang       textutil.Lang
	TotalTerms int
	K2, K3, K4 int
	FivePlus   int
}

// PaperTable1 reproduces the counts printed in the paper's Table 1.
// The total distinct-term counts are only stated for UMLS English
// (~9,919,000); the others are sized to preserve the paper's stated
// ratio of roughly one polysemic term per 200 terms (UMLS) and the
// observed sparsity of MeSH.
var PaperTable1 = []Table1Row{
	{Vocabulary: "UMLS", Lang: textutil.English, TotalTerms: 9919000, K2: 54257, K3: 7770, K4: 1842, FivePlus: 1677},
	{Vocabulary: "UMLS", Lang: textutil.French, TotalTerms: 260000, K2: 1292, K3: 36, K4: 1, FivePlus: 1},
	{Vocabulary: "UMLS", Lang: textutil.Spanish, TotalTerms: 2200000, K2: 10906, K3: 414, K4: 56, FivePlus: 18},
	{Vocabulary: "MeSH", Lang: textutil.English, TotalTerms: 250000, K2: 178, K3: 1, K4: 0, FivePlus: 0},
	{Vocabulary: "MeSH", Lang: textutil.French, TotalTerms: 110000, K2: 11, K3: 0, K4: 0, FivePlus: 0},
	{Vocabulary: "MeSH", Lang: textutil.Spanish, TotalTerms: 100000, K2: 0, K3: 0, K4: 0, FivePlus: 0},
}

// Scale divides every count by factor (rounding, keeping nonzero
// counts alive), producing a laptop-sized metathesaurus with the same
// marginal shape.
func (r Table1Row) Scale(factor float64) Table1Row {
	s := func(n int) int {
		if n == 0 {
			return 0
		}
		v := int(math.Round(float64(n) / factor))
		if v == 0 {
			v = 1 // keep the row's shape: nonzero stays nonzero
		}
		return v
	}
	return Table1Row{
		Vocabulary: r.Vocabulary, Lang: r.Lang,
		TotalTerms: s(r.TotalTerms),
		K2:         s(r.K2), K3: s(r.K3), K4: s(r.K4), FivePlus: s(r.FivePlus),
	}
}

// GenerateMetathesaurus builds a UMLS-like flat terminology whose
// polysemy marginals exactly match the given (already scaled) row: K2
// terms with 2 senses, K3 with 3, K4 with 4, FivePlus with 5, and
// monosemic terms filling up to TotalTerms. Concept ids are
// language-prefixed CUIs.
func GenerateMetathesaurus(row Table1Row, seed int64) *ontology.Ontology {
	wg := NewWordGen(seed)
	o := ontology.New(fmt.Sprintf("synthetic-%s-%s", row.Vocabulary, row.Lang))
	cui := 0
	nextID := func() ontology.ConceptID {
		cui++
		return ontology.ConceptID(fmt.Sprintf("%s%07d", langPrefix(row.Lang), cui))
	}
	addPoly := func(k int) {
		term := wg.Term(1 + cui%2)
		for s := 0; s < k; s++ {
			id := nextID()
			// Each sense concept gets its own preferred term; the
			// shared polysemic term is attached as a synonym.
			if _, err := o.AddConcept(id, wg.Term(2)); err != nil {
				panic(err)
			}
			if err := o.AddSynonym(id, term); err != nil {
				panic(err)
			}
		}
	}
	for i := 0; i < row.K2; i++ {
		addPoly(2)
	}
	for i := 0; i < row.K3; i++ {
		addPoly(3)
	}
	for i := 0; i < row.K4; i++ {
		addPoly(4)
	}
	for i := 0; i < row.FivePlus; i++ {
		addPoly(5)
	}
	// Monosemic filler. Every preferred term above is already
	// monosemic and counts toward the total; add the remainder.
	for o.NumTerms() < row.TotalTerms {
		if _, err := o.AddConcept(nextID(), wg.Term(1+cui%3)); err != nil {
			panic(err)
		}
	}
	return o
}

func langPrefix(l textutil.Lang) string {
	switch l {
	case textutil.French:
		return "CF"
	case textutil.Spanish:
		return "CS"
	}
	return "CE"
}
