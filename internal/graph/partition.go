package graph

import "sort"

// Bipartition splits the graph's nodes into two balanced halves with a
// small edge cut, using a Kernighan–Lin style refinement over a
// deterministic initial split. Returns the two halves sorted.
func (g *Graph) Bipartition() ([]string, []string) {
	nodes := g.Nodes()
	n := len(nodes)
	if n < 2 {
		return nodes, nil
	}
	// Initial split: BFS from the highest weighted-degree node fills
	// side A until half the nodes are assigned; this keeps connected
	// regions together, a much better seed than an arbitrary cut.
	seed := nodes[0]
	best := -1.0
	for _, v := range nodes {
		if d := g.WeightedDegree(v); d > best {
			best, seed = d, v
		}
	}
	half := n / 2
	side := make(map[string]int, n) // 0 = A, 1 = B
	for _, v := range nodes {
		side[v] = 1
	}
	countA := 0
	queue := []string{seed}
	visited := map[string]bool{seed: true}
	for len(queue) > 0 && countA < half {
		v := queue[0]
		queue = queue[1:]
		side[v] = 0
		countA++
		for _, nb := range g.Neighbors(v) {
			if !visited[nb] {
				visited[nb] = true
				queue = append(queue, nb)
			}
		}
	}
	// If BFS exhausted a small component, fill A with remaining nodes.
	for _, v := range nodes {
		if countA >= half {
			break
		}
		if side[v] == 1 {
			side[v] = 0
			countA++
		}
	}

	// Refinement: greedy single-node moves (which may unbalance the
	// split down to a floor of n/5 per side — natural clusters are
	// rarely exactly balanced) followed by KL-style swaps.
	// Neighbors is sorted, so the float sums do not depend on map
	// order.
	gain := func(v string) float64 {
		var ext, int_ float64
		for _, nb := range g.Neighbors(v) {
			w := g.adj[v][nb]
			if side[nb] == side[v] {
				int_ += w
			} else {
				ext += w
			}
		}
		return ext - int_
	}
	minSide := n / 5
	if minSide < 1 {
		minSide = 1
	}
	sizes := [2]int{countA, n - countA}
	for pass := 0; pass < 20; pass++ {
		improved := false
		// Best positive-gain move respecting the size floor.
		bestNode, bestGain := "", 1e-12
		for _, v := range nodes {
			if sizes[side[v]] <= minSide {
				continue
			}
			if gv := gain(v); gv > bestGain {
				bestNode, bestGain = v, gv
			}
		}
		if bestNode != "" {
			sizes[side[bestNode]]--
			side[bestNode] = 1 - side[bestNode]
			sizes[side[bestNode]]++
			improved = true
		} else {
			// Size-preserving swap with positive combined gain.
		swapSearch:
			for _, a := range nodes {
				if side[a] != 0 {
					continue
				}
				for _, b := range nodes {
					if side[b] != 1 {
						continue
					}
					if gain(a)+gain(b)-2*g.adj[a][b] > 1e-12 {
						side[a], side[b] = 1, 0
						improved = true
						break swapSearch
					}
				}
			}
		}
		if !improved {
			break
		}
	}

	var partA, partB []string
	for _, v := range nodes {
		if side[v] == 0 {
			partA = append(partA, v)
		} else {
			partB = append(partB, v)
		}
	}
	sort.Strings(partA)
	sort.Strings(partB)
	return partA, partB
}

// PartitionK splits the graph into k parts by recursive bisection,
// always splitting the part whose induced subgraph has the largest
// number of nodes. Returns k (possibly fewer, if the graph is smaller
// than k) sorted node groups, largest first.
func (g *Graph) PartitionK(k int) [][]string {
	if k < 1 {
		k = 1
	}
	parts := [][]string{g.Nodes()}
	for len(parts) < k {
		// Pick the largest splittable part.
		idx := -1
		for i, p := range parts {
			if len(p) >= 2 && (idx == -1 || len(p) > len(parts[idx])) {
				idx = i
			}
		}
		if idx == -1 {
			break
		}
		sub := g.Subgraph(parts[idx])
		a, b := sub.Bipartition()
		if len(a) == 0 || len(b) == 0 {
			break
		}
		parts[idx] = a
		parts = append(parts, b)
	}
	sort.Slice(parts, func(i, j int) bool {
		if len(parts[i]) != len(parts[j]) {
			return len(parts[i]) > len(parts[j])
		}
		return parts[i][0] < parts[j][0]
	})
	return parts
}
