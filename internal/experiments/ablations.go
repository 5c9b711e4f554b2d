package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"

	"bioenrich/internal/linkage"
	"bioenrich/internal/synth"
	"bioenrich/internal/termex"
)

// ---------------------------------------------------------------
// E3 — term-extraction measure ablation (step I)
// ---------------------------------------------------------------

// E3Row scores one ranking measure by the precision of its top-k
// candidates against the ontology's own terminology — the BIOTEX-style
// evaluation of the authors' companion methodology paper.
type E3Row struct {
	Measure     termex.Measure
	PrecisionAt map[int]float64 // cutoffs 50, 100, 200
	Candidates  int
}

// E3Cutoffs are the ranking depths scored.
var E3Cutoffs = []int{50, 100, 200}

// E3 builds a synthetic mesh + corpus (library defaults: terminology
// mentions are dense, as in domain-focused PubMed queries) and scores
// every measure: a top-ranked candidate counts as correct iff it is a
// term of the ontology — the terminology the corpus was generated to
// express.
func E3(ctx context.Context, seed int64) ([]E3Row, error) {
	mopts := synth.DefaultMeshOptions()
	mopts.Seed = seed
	mesh := synth.GenerateMesh(mopts)
	copts := synth.DefaultCorpusOptions()
	copts.Seed = seed + 1
	c := synth.GenerateMeshCorpus(mesh, copts)
	ext := termex.NewExtractor(c)
	ext.LearnPatterns(mesh.Ontology.Terms())

	var rows []E3Row
	maxK := E3Cutoffs[len(E3Cutoffs)-1]
	for _, m := range termex.Measures {
		all, err := ext.Rank(ctx, m, 0)
		if err != nil {
			return nil, fmt.Errorf("experiments: E3 %s: %w", m, err)
		}
		// BIOTEX evaluates multi-word term extraction; single words are
		// overwhelmingly general vocabulary and are excluded from the
		// precision computation.
		ranked := make([]termex.ScoredTerm, 0, maxK)
		for _, st := range all {
			if st.Words >= 2 {
				ranked = append(ranked, st)
				if len(ranked) == maxK {
					break
				}
			}
		}
		row := E3Row{Measure: m, PrecisionAt: map[int]float64{}, Candidates: ext.NumCandidates()}
		for _, k := range E3Cutoffs {
			limit := k
			if limit > len(ranked) {
				limit = len(ranked)
			}
			hits := 0
			for i := 0; i < limit; i++ {
				if mesh.Ontology.HasTerm(ranked[i].Term) {
					hits++
				}
			}
			row.PrecisionAt[k] = float64(hits) / float64(limit)
		}
		rows = append(rows, row)
	}
	sort.Slice(rows, func(i, j int) bool {
		ki := E3Cutoffs[0]
		if rows[i].PrecisionAt[ki] != rows[j].PrecisionAt[ki] {
			return rows[i].PrecisionAt[ki] > rows[j].PrecisionAt[ki]
		}
		return rows[i].Measure < rows[j].Measure
	})
	return rows, nil
}

// WriteE3 renders the measure ablation.
func WriteE3(w io.Writer, rows []E3Row) {
	fmt.Fprintln(w, "E3 (ablation): step I ranking measures, precision of top-k candidates vs the ontology terminology")
	fmt.Fprintf(w, "%-12s %8s %8s %8s\n", "measure", "P@50", "P@100", "P@200")
	for i, r := range rows {
		marker := ""
		if i == 0 {
			marker = "  <- best"
		}
		fmt.Fprintf(w, "%-12s %8.3f %8.3f %8.3f%s\n",
			r.Measure, r.PrecisionAt[50], r.PrecisionAt[100], r.PrecisionAt[200], marker)
	}
}

// ---------------------------------------------------------------
// Table 4a — neighborhood-expansion ablation (step IV)
// ---------------------------------------------------------------

// Table4Ablation holds the with/without-expansion comparison.
type Table4Ablation struct {
	With    *linkage.Result
	Without *linkage.Result
}

// Table4A runs the Table 4 protocol twice: with the paper's
// fathers/sons expansion of the co-occurrence neighborhood, and with
// the expansion disabled (candidates compared only against direct
// co-occurrence neighbors).
func Table4A(opts Table4Options) (*Table4Ablation, error) {
	withOpts := opts
	withOpts.ExpandFathers, withOpts.ExpandSons = true, true
	with, err := Table4(withOpts)
	if err != nil {
		return nil, err
	}
	withoutOpts := opts
	withoutOpts.ExpandFathers, withoutOpts.ExpandSons = false, false
	without, err := Table4(withoutOpts)
	if err != nil {
		return nil, err
	}
	return &Table4Ablation{With: with, Without: without}, nil
}

// WriteTable4A renders the ablation side by side.
func WriteTable4A(w io.Writer, a *Table4Ablation) {
	fmt.Fprintln(w, "Table 4a (ablation): linkage precision with vs without fathers/sons expansion")
	fmt.Fprintf(w, "%-8s %12s %12s\n", "cutoff", "expanded", "neighbors-only")
	for _, k := range linkage.Cutoffs {
		fmt.Fprintf(w, "Top %-4d %12.3f %12.3f\n",
			k, a.With.PrecisionAt[k], a.Without.PrecisionAt[k])
	}
	fmt.Fprintf(w, "MRR      %12.3f %12.3f\n", a.With.MRR, a.Without.MRR)
}
