package graph

import "sort"

// Components returns the connected components as sorted node slices,
// largest first (ties broken by first node).
func (g *Graph) Components() [][]string {
	seen := make(map[string]bool, g.NumNodes())
	var comps [][]string
	for _, start := range g.Nodes() {
		if seen[start] {
			continue
		}
		var comp []string
		queue := []string{start}
		seen[start] = true
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			comp = append(comp, v)
			for nb := range g.adj[v] {
				if !seen[nb] {
					seen[nb] = true
					queue = append(queue, nb)
				}
			}
		}
		sort.Strings(comp)
		comps = append(comps, comp)
	}
	sort.Slice(comps, func(i, j int) bool {
		if len(comps[i]) != len(comps[j]) {
			return len(comps[i]) > len(comps[j])
		}
		return comps[i][0] < comps[j][0]
	})
	return comps
}

// KCore returns the maximal induced subgraph in which every node has
// degree ≥ k (the k-core). May be empty.
func (g *Graph) KCore(k int) *Graph {
	core := g.Clone()
	for {
		var drop []string
		for _, n := range core.Nodes() {
			if core.Degree(n) < k {
				drop = append(drop, n)
			}
		}
		if len(drop) == 0 {
			return core
		}
		for _, n := range drop {
			core.RemoveNode(n)
		}
	}
}
