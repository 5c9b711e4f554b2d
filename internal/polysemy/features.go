// Package polysemy implements step II of the workflow: deciding
// whether a candidate term is polysemic. Following the paper, every
// term is described by 23 features — 11 computed directly from its
// corpus contexts and 12 read off the co-occurrence graph induced from
// the corpus — and a machine-learning classifier is trained on terms
// whose polysemy status is known from the UMLS-like metathesaurus.
package polysemy

import (
	"math"
	"sort"

	"bioenrich/internal/corpus"
	"bioenrich/internal/sparse"
)

// ContextWindow is the token window used to harvest term contexts.
const ContextWindow = 8

// NumDirect and NumGraph are the paper's feature counts (11 + 12 = 23).
const (
	NumDirect = 11
	NumGraph  = 12
)

// FeatureNames labels the 23 features, direct first.
var FeatureNames = []string{
	// direct (11)
	"log-tf", "log-df", "distinct-context-words", "context-entropy",
	"normalized-entropy", "mean-context-similarity",
	"context-similarity-variance", "term-words", "term-chars",
	"type-token-ratio", "mean-context-size",
	// graph (12)
	"ego-degree", "ego-weighted-degree", "term-clustering-coefficient",
	"ego-average-clustering", "components-without-term",
	"largest-component-share", "ego-density", "term-pagerank",
	"term-betweenness", "two-core-share", "ego-avg-path-length",
	"ego-edge-node-ratio",
}

// Features holds one term's 23-dimensional description.
type Features struct {
	Direct [NumDirect]float64
	Graph  [NumGraph]float64
}

// Vector flattens the features in FeatureNames order.
func (f Features) Vector() []float64 {
	out := make([]float64, 0, NumDirect+NumGraph)
	out = append(out, f.Direct[:]...)
	out = append(out, f.Graph[:]...)
	return out
}

// Extract computes all 23 features of a term from the corpus.
func Extract(c *corpus.Corpus, term string) Features {
	var f Features
	ctxs := c.Contexts(term, ContextWindow)

	// ---- direct features ----
	tf := float64(c.TF(term))
	df := float64(c.DF(term))
	f.Direct[0] = math.Log1p(tf)
	f.Direct[1] = math.Log1p(df)

	counts := sparse.New(64)
	var totalWords float64
	var vecs []sparse.Vector
	for _, ctx := range ctxs {
		for _, w := range ctx.Words {
			counts[w]++
			totalWords++
		}
		vecs = append(vecs, sparse.FromCounts(ctx.Words))
	}
	distinct := float64(len(counts))
	f.Direct[2] = math.Log1p(distinct)

	// Shannon entropy of the context word distribution. Polysemic
	// terms mix several topics, spreading mass over more words. The
	// sum runs in sorted word order, so its bits do not depend on map
	// order.
	var entropy float64
	if totalWords > 0 {
		words := make([]string, 0, len(counts))
		for w := range counts {
			words = append(words, w)
		}
		sort.Strings(words)
		for _, w := range words {
			p := counts[w] / totalWords
			entropy -= p * math.Log2(p)
		}
	}
	f.Direct[3] = entropy
	if distinct > 1 {
		f.Direct[4] = entropy / math.Log2(distinct)
	}

	mean, variance := contextSimilarityStats(vecs)
	f.Direct[5] = mean // low for polysemic terms: contexts disagree
	f.Direct[6] = variance
	f.Direct[7] = float64(wordCount(term))
	f.Direct[8] = float64(len(term))
	if totalWords > 0 {
		f.Direct[9] = distinct / totalWords
		f.Direct[10] = totalWords / float64(len(ctxs))
	}

	// ---- graph features (induced co-occurrence graph) ----
	ego := c.EgoCooccurrence(term, ContextWindow)
	nt := normalizedTerm(term)
	n := float64(ego.NumNodes())
	if n <= 1 {
		return f
	}
	f.Graph[0] = math.Log1p(float64(ego.Degree(nt)))
	f.Graph[1] = math.Log1p(ego.WeightedDegree(nt))
	f.Graph[2] = ego.ClusteringCoefficient(nt)

	without := ego.Clone()
	without.RemoveNode(nt)
	f.Graph[3] = without.AverageClustering()
	comps := without.Components()
	f.Graph[4] = float64(len(comps)) // sense communities fall apart
	if len(comps) > 0 && without.NumNodes() > 0 {
		f.Graph[5] = float64(len(comps[0])) / float64(without.NumNodes())
	}
	f.Graph[6] = without.Density()
	pr := ego.PageRank(0.85, 30)
	f.Graph[7] = pr[nt] * n // scale-free of graph size
	bc := ego.Betweenness()
	pairs := (n - 1) * (n - 2) / 2
	if pairs > 0 {
		f.Graph[8] = bc[nt] / pairs // normalized betweenness
	}
	core2 := without.KCore(2)
	if without.NumNodes() > 0 {
		f.Graph[9] = float64(core2.NumNodes()) / float64(without.NumNodes())
	}
	f.Graph[10] = without.AveragePathLength()
	if without.NumNodes() > 0 {
		f.Graph[11] = float64(without.NumEdges()) / float64(without.NumNodes())
	}
	return f
}

// contextSimilarityStats returns the mean and variance of pairwise
// cosine similarity between per-occurrence context vectors, sampling
// at most maxPairs pairs for large context sets.
func contextSimilarityStats(vecs []sparse.Vector) (mean, variance float64) {
	n := len(vecs)
	if n < 2 {
		return 0, 0
	}
	const maxPairs = 2000
	var sims []float64
	stride := 1
	total := n * (n - 1) / 2
	if total > maxPairs {
		stride = total/maxPairs + 1
	}
	idx := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if idx%stride == 0 {
				sims = append(sims, vecs[i].Cosine(vecs[j]))
			}
			idx++
		}
	}
	if len(sims) == 0 {
		return 0, 0
	}
	for _, s := range sims {
		mean += s
	}
	mean /= float64(len(sims))
	for _, s := range sims {
		variance += (s - mean) * (s - mean)
	}
	variance /= float64(len(sims))
	return mean, variance
}

func wordCount(term string) int {
	n, in := 0, false
	for i := 0; i < len(term); i++ {
		if term[i] == ' ' {
			in = false
		} else if !in {
			in = true
			n++
		}
	}
	return n
}

func normalizedTerm(term string) string {
	// corpus.EgoCooccurrence normalizes its center node the same way.
	return normTerm(term)
}
