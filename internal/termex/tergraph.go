package termex

import (
	"context"
	"fmt"
	"math"
	"sort"
)

// TeRGraph is the graph-based termhood measure of the authors'
// companion work (Lossio-Ventura et al., "TeRGraph"): candidate terms
// are vertices of a term co-occurrence graph, and a term is the more
// domain-specific the more its neighbors are themselves specific
// (low-degree). The EDBT paper does not print the constants, so this
// is a faithful re-derivation of the published intuition:
//
//	TeRGraph(A) = log2(1 + f(A)) · (1/|N(A)|) · Σ_{B ∈ N(A)} 1/(1 + deg(B))
//
// Isolated candidates score log2(1 + f(A)) · ε so frequency still
// breaks ties among them.
const TeRGraph Measure = "tergraph"

// terGraphWindow is the co-occurrence window (tokens) used to connect
// candidate terms.
const terGraphWindow = 12

// terGraphScores builds the candidate co-occurrence graph and scores
// every candidate, aligned with the candidate table. A cancelled ctx
// stops the build and returns its error.
func (e *Extractor) terGraphScores(ctx context.Context) ([]float64, error) {
	candidates := make([]string, len(e.t.cands))
	for i, c := range e.t.cands {
		candidates[i] = c.term
	}
	sort.Strings(candidates) // canonical vocabulary order, whatever first-seen order was
	g, err := e.c.TermCooccurrenceGraph(ctx, candidates, terGraphWindow)
	if err != nil {
		return nil, fmt.Errorf("termex: tergraph: %w", err)
	}
	const isolatedEps = 1e-3
	out := make([]float64, len(e.t.cands))
	for i, c := range e.t.cands {
		base := math.Log2(1 + float64(c.freq))
		nbrs := g.Neighbors(c.term)
		if len(nbrs) == 0 {
			out[i] = base * isolatedEps
			continue
		}
		var spec float64
		for _, nb := range nbrs {
			spec += 1 / (1 + float64(g.Degree(nb)))
		}
		out[i] = base * spec / float64(len(nbrs))
	}
	return out, nil
}
