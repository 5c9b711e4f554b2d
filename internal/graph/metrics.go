package graph

// ClusteringCoefficient returns the local clustering coefficient of n:
// the fraction of pairs of n's neighbors that are themselves connected.
// Nodes of degree < 2 have coefficient 0.
func (g *Graph) ClusteringCoefficient(n string) float64 {
	nbrs := g.Neighbors(n)
	d := len(nbrs)
	if d < 2 {
		return 0
	}
	links := 0
	for i := 0; i < d; i++ {
		for j := i + 1; j < d; j++ {
			if g.HasEdge(nbrs[i], nbrs[j]) {
				links++
			}
		}
	}
	return 2 * float64(links) / float64(d*(d-1))
}

// AverageClustering returns the mean local clustering coefficient over
// all nodes (0 for an empty graph).
func (g *Graph) AverageClustering() float64 {
	if g.NumNodes() == 0 {
		return 0
	}
	// Sorted node order keeps the float reduction order-canonical;
	// coefficients are rationals whose sum rounds differently per
	// permutation, and downstream consumers (step II features) need
	// run-to-run reproducibility.
	var sum float64
	for _, n := range g.Nodes() {
		sum += g.ClusteringCoefficient(n)
	}
	return sum / float64(g.NumNodes())
}

// Density returns 2E / (N(N−1)), the fraction of possible edges
// present. Graphs with fewer than 2 nodes have density 0.
func (g *Graph) Density() float64 {
	n := g.NumNodes()
	if n < 2 {
		return 0
	}
	return 2 * float64(g.NumEdges()) / float64(n*(n-1))
}

// PageRank computes the weighted PageRank of every node with damping d
// and the given number of iterations. Dangling mass is redistributed
// uniformly. The result sums to 1 for non-empty graphs.
func (g *Graph) PageRank(d float64, iterations int) map[string]float64 {
	n := g.NumNodes()
	pr := make(map[string]float64, n)
	if n == 0 {
		return pr
	}
	nodes := g.Nodes()
	for _, v := range nodes {
		pr[v] = 1 / float64(n)
	}
	wdeg := make(map[string]float64, n)
	for _, v := range nodes {
		wdeg[v] = g.WeightedDegree(v)
	}
	for it := 0; it < iterations; it++ {
		next := make(map[string]float64, n)
		var dangling float64
		for _, v := range nodes {
			if wdeg[v] == 0 {
				dangling += pr[v]
				continue
			}
			share := pr[v] / wdeg[v]
			for nb, w := range g.adj[v] {
				next[nb] += share * w
			}
		}
		base := (1-d)/float64(n) + d*dangling/float64(n)
		for _, v := range nodes {
			pr[v] = base + d*next[v]
		}
	}
	return pr
}

// BFSDistances returns the hop distance from src to every reachable
// node (src included with distance 0).
func (g *Graph) BFSDistances(src string) map[string]int {
	dist := map[string]int{}
	if !g.HasNode(src) {
		return dist
	}
	dist[src] = 0
	queue := []string{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		// Neighbors returns sorted names, so the traversal (and any
		// future tie-breaking on it) is canonical.
		for _, nb := range g.Neighbors(v) {
			if _, seen := dist[nb]; !seen {
				dist[nb] = dist[v] + 1
				queue = append(queue, nb)
			}
		}
	}
	return dist
}

// AveragePathLength returns the mean hop distance over all connected
// ordered pairs, or 0 when no such pair exists. O(V·E); intended for
// the small ego/co-occurrence graphs of a single term.
func (g *Graph) AveragePathLength() float64 {
	var total, pairs int
	for n := range g.adj {
		for _, d := range g.BFSDistances(n) {
			if d > 0 {
				total += d
				pairs++
			}
		}
	}
	if pairs == 0 {
		return 0
	}
	return float64(total) / float64(pairs)
}
