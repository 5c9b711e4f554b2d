// Package graph implements the undirected weighted graph substrate used
// throughout the workflow: term co-occurrence graphs (steps II–IV), the
// graph representation for clustering (step III), and the induced-graph
// features for polysemy detection (step II).
package graph

import (
	"fmt"
	"sort"
)

// Graph is an undirected weighted graph with string node identifiers.
// Self-loops are not stored. The zero value is not usable; call New.
type Graph struct {
	adj map[string]map[string]float64
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{adj: make(map[string]map[string]float64)}
}

// AddNode ensures node n exists (isolated if no edges are added).
func (g *Graph) AddNode(n string) {
	if _, ok := g.adj[n]; !ok {
		g.adj[n] = make(map[string]float64)
	}
}

// AddEdge adds w to the weight of the undirected edge {a, b}, creating
// nodes as needed. Self-loops are ignored.
func (g *Graph) AddEdge(a, b string, w float64) {
	if a == b {
		return
	}
	g.AddNode(a)
	g.AddNode(b)
	g.adj[a][b] += w
	g.adj[b][a] += w
}

// SetEdge sets the weight of the undirected edge {a, b}, creating nodes
// as needed. A weight of 0 removes the edge.
func (g *Graph) SetEdge(a, b string, w float64) {
	if a == b {
		return
	}
	g.AddNode(a)
	g.AddNode(b)
	if w == 0 {
		delete(g.adj[a], b)
		delete(g.adj[b], a)
		return
	}
	g.adj[a][b] = w
	g.adj[b][a] = w
}

// RemoveNode deletes n and all incident edges.
func (g *Graph) RemoveNode(n string) {
	for nb := range g.adj[n] {
		delete(g.adj[nb], n)
	}
	delete(g.adj, n)
}

// HasNode reports whether n exists.
func (g *Graph) HasNode(n string) bool {
	_, ok := g.adj[n]
	return ok
}

// HasEdge reports whether the edge {a, b} exists.
func (g *Graph) HasEdge(a, b string) bool {
	_, ok := g.adj[a][b]
	return ok
}

// Weight returns the weight of edge {a, b}, or 0 if absent.
func (g *Graph) Weight(a, b string) float64 {
	return g.adj[a][b]
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return len(g.adj) }

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int {
	n := 0
	for _, nbrs := range g.adj {
		n += len(nbrs)
	}
	return n / 2
}

// Degree returns the number of neighbors of n.
func (g *Graph) Degree(n string) int { return len(g.adj[n]) }

// WeightedDegree returns the sum of incident edge weights of n,
// accumulated in sorted-neighbor order so the result is identical
// across runs even for fractional weights.
func (g *Graph) WeightedDegree(n string) float64 {
	var sum float64
	for _, nb := range g.Neighbors(n) {
		sum += g.adj[n][nb]
	}
	return sum
}

// Neighbors returns the neighbors of n in sorted order (deterministic).
func (g *Graph) Neighbors(n string) []string {
	nbrs := make([]string, 0, len(g.adj[n]))
	for nb := range g.adj[n] {
		nbrs = append(nbrs, nb)
	}
	sort.Strings(nbrs)
	return nbrs
}

// Nodes returns all node identifiers in sorted order.
func (g *Graph) Nodes() []string {
	nodes := make([]string, 0, len(g.adj))
	for n := range g.adj {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	return nodes
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	out := New()
	for a, nbrs := range g.adj {
		out.AddNode(a)
		for b, w := range nbrs {
			out.adj[a][b] = w
		}
	}
	return out
}

// Subgraph returns the induced subgraph on the given node set.
func (g *Graph) Subgraph(nodes []string) *Graph {
	keep := make(map[string]bool, len(nodes))
	for _, n := range nodes {
		keep[n] = true
	}
	out := New()
	for _, n := range nodes {
		if !g.HasNode(n) {
			continue
		}
		out.AddNode(n)
		for nb, w := range g.adj[n] {
			if keep[nb] && n < nb {
				out.AddEdge(n, nb, w)
			}
		}
	}
	return out
}

// String gives a compact description for debugging.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{%d nodes, %d edges}", g.NumNodes(), g.NumEdges())
}
