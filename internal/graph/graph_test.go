package graph

import (
	"math"
	"math/rand"
	"testing"
)

func triangle() *Graph {
	g := New()
	g.AddEdge("a", "b", 1)
	g.AddEdge("b", "c", 1)
	g.AddEdge("a", "c", 1)
	return g
}

func path4() *Graph {
	g := New()
	g.AddEdge("a", "b", 1)
	g.AddEdge("b", "c", 1)
	g.AddEdge("c", "d", 1)
	return g
}

func TestBasicOps(t *testing.T) {
	g := New()
	g.AddEdge("x", "y", 2)
	g.AddEdge("x", "y", 1) // accumulates
	if got := g.Weight("x", "y"); got != 3 {
		t.Errorf("Weight = %v, want 3", got)
	}
	if got := g.Weight("y", "x"); got != 3 {
		t.Errorf("symmetric Weight = %v", got)
	}
	if g.NumNodes() != 2 || g.NumEdges() != 1 {
		t.Errorf("counts = %d nodes %d edges", g.NumNodes(), g.NumEdges())
	}
	g.AddEdge("x", "x", 5) // self loop ignored
	if g.NumEdges() != 1 {
		t.Error("self loop was stored")
	}
	g.SetEdge("x", "y", 0) // removes
	if g.HasEdge("x", "y") {
		t.Error("SetEdge(0) did not remove edge")
	}
}

func TestRemoveNode(t *testing.T) {
	g := triangle()
	g.RemoveNode("a")
	if g.HasNode("a") || g.HasEdge("b", "a") || g.HasEdge("c", "a") {
		t.Error("RemoveNode left residue")
	}
	if g.NumEdges() != 1 {
		t.Errorf("edges after removal = %d, want 1", g.NumEdges())
	}
}

func TestDegreeAndNeighbors(t *testing.T) {
	g := path4()
	if g.Degree("b") != 2 || g.Degree("a") != 1 {
		t.Error("degrees wrong")
	}
	nbrs := g.Neighbors("b")
	if len(nbrs) != 2 || nbrs[0] != "a" || nbrs[1] != "c" {
		t.Errorf("Neighbors = %v", nbrs)
	}
	if g.WeightedDegree("b") != 2 {
		t.Error("weighted degree wrong")
	}
}

func TestCloneIndependent(t *testing.T) {
	g := triangle()
	c := g.Clone()
	c.AddEdge("a", "z", 1)
	if g.HasNode("z") {
		t.Error("Clone shares storage")
	}
}

func TestSubgraphAndEgo(t *testing.T) {
	g := path4()
	s := g.Subgraph([]string{"a", "b", "d"})
	if s.NumNodes() != 3 || s.NumEdges() != 1 || !s.HasEdge("a", "b") {
		t.Errorf("Subgraph = %v", s)
	}
}

func TestClusteringCoefficient(t *testing.T) {
	g := triangle()
	if got := g.ClusteringCoefficient("a"); got != 1 {
		t.Errorf("triangle cc = %v", got)
	}
	p := path4()
	if got := p.ClusteringCoefficient("b"); got != 0 {
		t.Errorf("path cc = %v", got)
	}
	if got := p.ClusteringCoefficient("a"); got != 0 {
		t.Errorf("degree-1 cc = %v", got)
	}
	if got := triangle().AverageClustering(); got != 1 {
		t.Errorf("avg cc = %v", got)
	}
}

func TestDensity(t *testing.T) {
	if got := triangle().Density(); got != 1 {
		t.Errorf("triangle density = %v", got)
	}
	if got := New().Density(); got != 0 {
		t.Errorf("empty density = %v", got)
	}
}

func TestPageRankSumsToOne(t *testing.T) {
	g := path4()
	g.AddNode("isolated")
	pr := g.PageRank(0.85, 50)
	var sum float64
	for _, v := range pr {
		sum += v
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Errorf("PageRank sum = %v", sum)
	}
	// Central nodes outrank endpoints on a path.
	if pr["b"] <= pr["a"] {
		t.Errorf("pr[b]=%v <= pr[a]=%v", pr["b"], pr["a"])
	}
}

func TestPageRankEmpty(t *testing.T) {
	if got := New().PageRank(0.85, 10); len(got) != 0 {
		t.Errorf("empty PageRank = %v", got)
	}
}

func TestBFSDistancesAndEccentricity(t *testing.T) {
	g := path4()
	d := g.BFSDistances("a")
	if d["d"] != 3 || d["a"] != 0 {
		t.Errorf("BFS = %v", d)
	}
}

func TestAveragePathLength(t *testing.T) {
	g := triangle()
	if got := g.AveragePathLength(); got != 1 {
		t.Errorf("triangle APL = %v", got)
	}
}

func TestBetweennessPath(t *testing.T) {
	g := path4()
	bc := g.Betweenness()
	// On a path a-b-c-d: endpoints 0; b carries (a,c),(a,d) = 2; same for c.
	if bc["a"] != 0 || bc["d"] != 0 {
		t.Errorf("endpoint betweenness: %v", bc)
	}
	if bc["b"] != 2 || bc["c"] != 2 {
		t.Errorf("inner betweenness: %v", bc)
	}
}

func TestBetweennessStar(t *testing.T) {
	g := New()
	for _, leaf := range []string{"a", "b", "c", "d"} {
		g.AddEdge("hub", leaf, 1)
	}
	bc := g.Betweenness()
	// Hub mediates C(4,2)=6 pairs.
	if bc["hub"] != 6 {
		t.Errorf("hub betweenness = %v", bc["hub"])
	}
	for _, leaf := range []string{"a", "b", "c", "d"} {
		if bc[leaf] != 0 {
			t.Errorf("leaf %s betweenness = %v", leaf, bc[leaf])
		}
	}
}

func TestComponents(t *testing.T) {
	g := New()
	g.AddEdge("a", "b", 1)
	g.AddEdge("c", "d", 1)
	g.AddEdge("d", "e", 1)
	g.AddNode("lonely")
	comps := g.Components()
	if len(comps) != 3 {
		t.Fatalf("components = %v", comps)
	}
	if len(comps[0]) != 3 { // largest first
		t.Errorf("largest component = %v", comps[0])
	}
}

func TestKCore(t *testing.T) {
	// Triangle + pendant: 2-core is the triangle.
	g := triangle()
	g.AddEdge("c", "pendant", 1)
	core := g.KCore(2)
	if core.NumNodes() != 3 || core.HasNode("pendant") {
		t.Errorf("2-core = %v", core.Nodes())
	}
	if got := g.KCore(5); got.NumNodes() != 0 {
		t.Errorf("5-core should be empty, got %v", got.Nodes())
	}
}

func TestBipartitionTwoClusters(t *testing.T) {
	// Two dense triangles joined by a weak bridge must split at the bridge.
	g := New()
	for _, e := range [][2]string{{"a1", "a2"}, {"a2", "a3"}, {"a1", "a3"}} {
		g.AddEdge(e[0], e[1], 5)
	}
	for _, e := range [][2]string{{"b1", "b2"}, {"b2", "b3"}, {"b1", "b3"}} {
		g.AddEdge(e[0], e[1], 5)
	}
	g.AddEdge("a1", "b1", 0.1)
	pa, pb := g.Bipartition()
	if len(pa) != 3 || len(pb) != 3 {
		t.Fatalf("unbalanced: %v | %v", pa, pb)
	}
	side := map[string]int{}
	for _, n := range pa {
		side[n] = 0
	}
	for _, n := range pb {
		side[n] = 1
	}
	if side["a1"] != side["a2"] || side["a2"] != side["a3"] {
		t.Errorf("a-cluster split: %v | %v", pa, pb)
	}
	if side["b1"] != side["b2"] || side["b2"] != side["b3"] {
		t.Errorf("b-cluster split: %v | %v", pa, pb)
	}
}

func TestPartitionK(t *testing.T) {
	// Three cliques, k=3.
	g := New()
	cliques := [][]string{
		{"a1", "a2", "a3"}, {"b1", "b2", "b3"}, {"c1", "c2", "c3"},
	}
	for _, cl := range cliques {
		for i := range cl {
			for j := i + 1; j < len(cl); j++ {
				g.AddEdge(cl[i], cl[j], 5)
			}
		}
	}
	g.AddEdge("a1", "b1", 0.1)
	g.AddEdge("b1", "c1", 0.1)
	parts := g.PartitionK(3)
	if len(parts) != 3 {
		t.Fatalf("got %d parts: %v", len(parts), parts)
	}
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	if total != g.NumNodes() {
		t.Errorf("partition loses nodes: %d vs %d", total, g.NumNodes())
	}
}

func TestPartitionKSmallGraph(t *testing.T) {
	g := New()
	g.AddEdge("a", "b", 1)
	parts := g.PartitionK(5)
	if len(parts) > 2 {
		t.Errorf("too many parts for 2-node graph: %v", parts)
	}
}

func TestPartitionIsPartitionProperty(t *testing.T) {
	// Random graphs: PartitionK output covers every node exactly once.
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		g := New()
		n := 5 + r.Intn(15)
		for i := 0; i < n; i++ {
			g.AddNode(string(rune('A' + i)))
		}
		for i := 0; i < n*2; i++ {
			a := string(rune('A' + r.Intn(n)))
			b := string(rune('A' + r.Intn(n)))
			if a != b {
				g.AddEdge(a, b, 1+r.Float64())
			}
		}
		k := 1 + r.Intn(4)
		parts := g.PartitionK(k)
		seen := map[string]int{}
		for _, p := range parts {
			for _, node := range p {
				seen[node]++
			}
		}
		if len(seen) != g.NumNodes() {
			t.Fatalf("trial %d: covered %d of %d nodes", trial, len(seen), g.NumNodes())
		}
		for node, c := range seen {
			if c != 1 {
				t.Fatalf("trial %d: node %s appears %d times", trial, node, c)
			}
		}
	}
}
