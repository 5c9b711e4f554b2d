package cluster

import (
	"math"

	"bioenrich/internal/sparse"
)

// repeatedBisection implements CLUTO's rb/rbr: start with one cluster,
// repeatedly 2-means-bisect the cluster whose split most improves the
// I2 criterion, until k clusters exist. With refine=true (rbr) a final
// k-way spherical k-means refinement pass is run from the rb solution.
func repeatedBisection(unit []sparse.Vector, k int, seed int64, refine bool) *Clustering {
	n := len(unit)
	assign := make([]int, n)
	clusters := 1
	for clusters < k {
		// Choose the split with the best I2 gain among all current
		// clusters that can be split.
		bestCluster := -1
		bestGain := math.Inf(-1)
		var bestSplit []int // new assignment (0/1) for the members
		for c := 0; c < clusters; c++ {
			var members []int
			for i, a := range assign {
				if a == c {
					members = append(members, i)
				}
			}
			if len(members) < 2 {
				continue
			}
			sub := make([]sparse.Vector, len(members))
			for j, i := range members {
				sub[j] = unit[i]
			}
			before := compositeNorm(sub, nil, -1)
			two := kmeans(sub, 2, seed+int64(c)*31, 20)
			after := compositeNorm(sub, two.Assign, 0) + compositeNorm(sub, two.Assign, 1)
			gain := after - before
			if gain > bestGain {
				bestGain = gain
				bestCluster = c
				bestSplit = append([]int(nil), two.Assign...)
			}
		}
		if bestCluster < 0 {
			break // nothing splittable (all singletons)
		}
		// Apply: members with split label 1 move to a fresh cluster id.
		j := 0
		for i, a := range assign {
			if a == bestCluster {
				if bestSplit[j] == 1 {
					assign[i] = clusters
				}
				j++
			}
		}
		clusters++
	}
	c := newClustering(unit, assign, clusters)
	if refine && clusters > 1 {
		c = refineKWay(unit, c, 15)
	}
	return c
}

// compositeNorm returns ‖Σ v_i‖ over members with the given label
// (label -1 means all).
func compositeNorm(vecs []sparse.Vector, assign []int, label int) float64 {
	sum := sparse.New(16)
	for i, v := range vecs {
		if label < 0 || assign[i] == label {
			sum.Add(v)
		}
	}
	return math.Sqrt(sum.Dot(sum))
}

// refineKWay runs incremental greedy refinement: each object moves to
// the cluster whose centroid it is most similar to, recomputing
// centroids per sweep, preserving non-empty clusters.
func refineKWay(unit []sparse.Vector, c *Clustering, iters int) *Clustering {
	assign := append([]int(nil), c.Assign...)
	k := c.K
	for it := 0; it < iters; it++ {
		// Centroids from the current assignment.
		sums := make([]sparse.Vector, k)
		counts := make([]int, k)
		for i := range sums {
			sums[i] = sparse.New(8)
		}
		for i, v := range unit {
			sums[assign[i]].Add(v)
			counts[assign[i]]++
		}
		norms := make([]float64, k)
		for i := range sums {
			sums[i].Normalize()
			norms[i] = sums[i].Norm()
		}
		changed := false
		for i, v := range unit {
			if counts[assign[i]] <= 1 {
				continue // don't empty a cluster
			}
			sims := v.Cosines(sums, norms)
			best, bestSim := assign[i], sims[assign[i]]
			for cc, s := range sims {
				if s > bestSim {
					best, bestSim = cc, s
				}
			}
			if best != assign[i] {
				counts[assign[i]]--
				counts[best]++
				assign[i] = best
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return newClustering(unit, assign, k)
}
