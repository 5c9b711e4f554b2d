package cluster

import (
	"math"

	"bioenrich/internal/sparse"
)

// dendrogram is the merge tree of agglomerative clustering: the n−1
// merges from singletons down to one cluster, in merge order. cut(k)
// replays the first n−k merges, so one build serves every k of a
// sweep.
type dendrogram struct {
	unit   []sparse.Vector
	merges []mergeStep // in merge order
}

// mergeStep records one merge: the two current cluster representatives
// (indices into the original objects). A < B, and A absorbs B, so a
// cluster's representative is its lowest member.
type mergeStep struct {
	A, B int
}

// buildDendrogram merges singleton clusters greedily down to one,
// choosing at each step the merge that maximizes the resulting I2
// criterion (equivalently, the merge with the largest
// ‖D_a + D_b‖ − ‖D_a‖ − ‖D_b‖, i.e. the least criterion loss). This is
// CLUTO's agglo with the i2 criterion function.
//
// A pairwise dot-product matrix is maintained incrementally
// (dot(a∪b, x) = dot(a,x) + dot(b,x)), so each merge costs O(n) to
// apply and O(n²) to choose, and the whole build O(n³) scalar work
// instead of repeated sparse dot products.
func buildDendrogram(unit []sparse.Vector) *dendrogram {
	n := len(unit)
	// dots[i][j] = D_i · D_j for live clusters.
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
	dg := &dendrogram{unit: unit}
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
		// Merge B into A: update row/column A, kill B.
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
	return dg
}

// cut returns the clustering with k clusters (1 ≤ k ≤ n) by replaying
// the first n−k merges. Clusters are numbered in the order of their
// lowest members.
func (d *dendrogram) cut(k int) *Clustering {
	n := len(d.unit)
	absorber := make([]int, n)
	for i := range absorber {
		absorber[i] = i
	}
	for _, m := range d.merges[:n-k] {
		absorber[m.B] = m.A
	}
	// An absorbed object's absorber has a lower index, so it is
	// labelled first, with the label of its cluster's lowest member.
	assign := make([]int, n)
	clusters := 0
	for i, a := range absorber {
		if a == i {
			assign[i] = clusters
			clusters++
		} else {
			assign[i] = assign[a]
		}
	}
	return newClustering(d.unit, assign, clusters)
}
