package termex

import (
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
// every candidate.
func (e *Extractor) terGraphScores() map[string]float64 {
	e.Scan()
	candidates := make([]string, 0, len(e.freq))
	for term := range e.freq {
		candidates = append(candidates, term)
	}
	sort.Strings(candidates) // canonical vocabulary order, whatever map iteration did
	g := e.c.TermCooccurrenceGraph(candidates, terGraphWindow)
	const isolatedEps = 1e-3
	out := make(map[string]float64, len(e.freq))
	for term, f := range e.freq {
		base := math.Log2(1 + float64(f))
		nbrs := g.Neighbors(term)
		if len(nbrs) == 0 {
			out[term] = base * isolatedEps
			continue
		}
		var spec float64
		for _, nb := range nbrs {
			spec += 1 / (1 + float64(g.Degree(nb)))
		}
		out[term] = base * spec / float64(len(nbrs))
	}
	return out
}
