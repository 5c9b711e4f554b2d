package cluster

import (
	"fmt"
	"sort"
	"strconv"

	"bioenrich/internal/graph"
	"bioenrich/internal/sparse"
)

// graphNeighbors is the sparsification degree of the similarity graph:
// each object keeps edges to its graphNeighbors most similar peers
// (CLUTO's graph method similarly clusters a nearest-neighbor graph).
const graphNeighbors = 10

// similarityGraph builds the cosine nearest-neighbor graph over the
// objects. It depends on no k, and partitioning only reads it, so a
// sweep builds it once.
func similarityGraph(unit []sparse.Vector) *graph.Graph {
	n := len(unit)
	g := graph.New()
	ids := make([]string, n)
	for i := range unit {
		ids[i] = fmt.Sprintf("o%06d", i)
		g.AddNode(ids[i])
	}
	type simPair struct {
		j   int
		sim float64
	}
	for i := 0; i < n; i++ {
		pairs := make([]simPair, 0, n-1)
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			if s := unit[i].Cosine(unit[j]); s > 0 {
				pairs = append(pairs, simPair{j: j, sim: s})
			}
		}
		sort.Slice(pairs, func(a, b int) bool { return pairs[a].sim > pairs[b].sim })
		limit := graphNeighbors
		if limit > len(pairs) {
			limit = len(pairs)
		}
		for _, p := range pairs[:limit] {
			// SetEdge (not Add) so mutual neighbors don't double the weight.
			g.SetEdge(ids[i], ids[p.j], p.sim)
		}
	}
	return g
}

// graphCluster partitions the objects' similarity graph g into k parts
// with recursive min-cut bisection; parts map back to clusters. The
// parts hold every object once, but on degenerate graphs there may be
// fewer than k of them, so callers treat c.K as authoritative.
func graphCluster(unit []sparse.Vector, g *graph.Graph, k int) *Clustering {
	parts := g.PartitionK(k)
	assign := make([]int, len(unit))
	for c, part := range parts {
		for _, id := range part {
			idx, _ := strconv.Atoi(id[1:]) // "o%06d"
			assign[idx] = c
		}
	}
	return newClustering(unit, assign, len(parts))
}
