package experiments

import (
	"context"
	"fmt"
	"io"

	"bioenrich/internal/synth"
	"bioenrich/internal/termex"
	"bioenrich/internal/textutil"
)

// E4Row scores step I for one language — the paper's core claim that
// the methodology "has been applied for English, French, and Spanish".
type E4Row struct {
	Lang        textutil.Lang
	PrecisionAt map[int]float64 // multiword-candidate precision (cf. E3)
	Candidates  int
}

// E4 generates a mesh + corpus per language and scores LIDF-value
// extraction against the ontology terminology, the E3 protocol
// repeated cross-lingually.
func E4(ctx context.Context, seed int64) ([]E4Row, error) {
	var rows []E4Row
	for _, lang := range []textutil.Lang{textutil.English, textutil.French, textutil.Spanish} {
		mopts := synth.DefaultMeshOptions()
		mopts.Seed = seed
		mesh := synth.GenerateMesh(mopts)
		copts := synth.DefaultCorpusOptions()
		copts.Seed = seed + 1
		copts.Lang = lang
		c := synth.GenerateMeshCorpus(mesh, copts)

		ext := termex.NewExtractor(c)
		ext.LearnPatterns(mesh.Ontology.Terms())
		all, err := ext.Rank(ctx, termex.LIDF, 0)
		if err != nil {
			return nil, fmt.Errorf("experiments: E4 %s: %w", lang, err)
		}
		row := E4Row{Lang: lang, PrecisionAt: map[int]float64{}, Candidates: ext.NumCandidates()}
		maxK := E3Cutoffs[len(E3Cutoffs)-1]
		ranked := make([]termex.ScoredTerm, 0, maxK)
		for _, st := range all {
			if st.Words >= 2 {
				ranked = append(ranked, st)
				if len(ranked) == maxK {
					break
				}
			}
		}
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
			if limit > 0 {
				row.PrecisionAt[k] = float64(hits) / float64(limit)
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// WriteE4 renders the cross-lingual comparison.
func WriteE4(w io.Writer, rows []E4Row) {
	fmt.Fprintln(w, "E4 (extension): LIDF-value extraction per language (multiword P@k vs terminology)")
	fmt.Fprintf(w, "%-6s %10s %8s %8s %8s\n", "lang", "candidates", "P@50", "P@100", "P@200")
	for _, r := range rows {
		fmt.Fprintf(w, "%-6s %10d %8.3f %8.3f %8.3f\n",
			r.Lang, r.Candidates, r.PrecisionAt[50], r.PrecisionAt[100], r.PrecisionAt[200])
	}
}
