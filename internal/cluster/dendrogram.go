package cluster

import (
	"fmt"
	"math"

	"bioenrich/internal/sparse"
)

// Dendrogram is the full merge tree of agglomerative clustering: n−1
// recorded merges from singletons down to one cluster. Cut(k) replays
// the first n−k merges, so a single O(n³) build serves every k — the
// k-sweep of PredictK costs one build instead of one run per k.
type Dendrogram struct {
	unit   []sparse.Vector
	merges []mergeStep // in merge order
}

// mergeStep records one merge: the two current cluster representatives
// (indices into the original objects).
type mergeStep struct {
	A, B int
}

// BuildDendrogram runs the full agglomerative process (cosine, I2
// criterion — the same procedure as Run(Agglo, ...)) and records every
// merge. Inputs are normalized copies; the caller's vectors are not
// modified.
func BuildDendrogram(vecs []sparse.Vector) (*Dendrogram, error) {
	if len(vecs) == 0 {
		return nil, fmt.Errorf("cluster: no vectors")
	}
	unit := normalizeAll(vecs)
	n := len(unit)
	dots := make([][]float64, n)
	for i := range dots {
		dots[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		dots[i][i] = unit[i].Dot(unit[i])
		for j := i + 1; j < n; j++ {
			d := unit[i].Dot(unit[j])
			dots[i][j], dots[j][i] = d, d
		}
	}
	alive := make([]bool, n)
	norms := make([]float64, n)
	for i := range unit {
		alive[i] = true
		norms[i] = math.Sqrt(dots[i][i])
	}
	dg := &Dendrogram{unit: unit}
	for remaining := n; remaining > 1; remaining-- {
		bestA, bestB := -1, -1
		bestDelta := math.Inf(-1)
		for a := 0; a < n; a++ {
			if !alive[a] {
				continue
			}
			for b := a + 1; b < n; b++ {
				if !alive[b] {
					continue
				}
				merged := math.Sqrt(dots[a][a] + dots[b][b] + 2*dots[a][b])
				delta := merged - norms[a] - norms[b]
				if delta > bestDelta {
					bestDelta, bestA, bestB = delta, a, b
				}
			}
		}
		dg.merges = append(dg.merges, mergeStep{A: bestA, B: bestB})
		for x := 0; x < n; x++ {
			if !alive[x] || x == bestA || x == bestB {
				continue
			}
			d := dots[bestA][x] + dots[bestB][x]
			dots[bestA][x], dots[x][bestA] = d, d
		}
		dots[bestA][bestA] += dots[bestB][bestB] + 2*dots[bestA][bestB]
		norms[bestA] = math.Sqrt(dots[bestA][bestA])
		alive[bestB] = false
	}
	return dg, nil
}

// N returns the number of clustered objects.
func (d *Dendrogram) N() int { return len(d.unit) }

// Cut returns the clustering with k clusters (1 ≤ k ≤ n) by replaying
// the first n−k merges.
func (d *Dendrogram) Cut(k int) (*Clustering, error) {
	n := len(d.unit)
	if k < 1 || k > n {
		return nil, fmt.Errorf("cluster: cut k=%d of %d objects", k, n)
	}
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for i := 0; i < n-k; i++ {
		m := d.merges[i]
		// The recorded representative A absorbs B.
		parent[find(m.B)] = find(m.A)
	}
	// Compact root ids to 0..k-1 in first-seen order.
	assign := make([]int, n)
	idOf := map[int]int{}
	for i := 0; i < n; i++ {
		root := find(i)
		id, ok := idOf[root]
		if !ok {
			id = len(idOf)
			idOf[root] = id
		}
		assign[i] = id
	}
	return newClustering(d.unit, assign, len(idOf)), nil
}
