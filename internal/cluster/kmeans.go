package cluster

import (
	"fmt"
	"math/rand"

	"bioenrich/internal/sparse"
)

// Algorithm names one of the five CLUTO-style clustering methods the
// paper evaluates.
type Algorithm string

// The five algorithms of the paper's experiment ("rb, rbr, direct,
// agglo, graph").
const (
	RB     Algorithm = "rb"     // repeated bisection
	RBR    Algorithm = "rbr"    // repeated bisection + k-way refinement
	Direct Algorithm = "direct" // spherical k-means
	Agglo  Algorithm = "agglo"  // agglomerative (I2-greedy merging)
	Graph  Algorithm = "graph"  // nearest-neighbor graph partitioning
)

// Algorithms lists all five in the paper's order.
var Algorithms = []Algorithm{RB, RBR, Direct, Agglo, Graph}

// Run clusters vecs into k clusters with the chosen algorithm.
// Vectors are cosine-normalized internally; the input is not modified.
func Run(alg Algorithm, vecs []sparse.Vector, k int, seed int64) (*Clustering, error) {
	if k < 1 {
		return nil, fmt.Errorf("cluster: k=%d", k)
	}
	if len(vecs) == 0 {
		return nil, fmt.Errorf("cluster: no vectors")
	}
	if k > len(vecs) {
		return nil, fmt.Errorf("cluster: k=%d exceeds %d objects", k, len(vecs))
	}
	unit := normalizeAll(vecs)
	switch alg {
	case Direct:
		return kmeans(unit, k, seed, 30), nil
	case RB:
		return repeatedBisection(unit, k, seed, false), nil
	case RBR:
		return repeatedBisection(unit, k, seed, true), nil
	case Agglo:
		return agglomerative(unit, k), nil
	case Graph:
		return graphCluster(unit, k, seed), nil
	default:
		return nil, fmt.Errorf("cluster: unknown algorithm %q", alg)
	}
}

// kmeans is spherical k-means (cosine similarity, I2 criterion) with
// greedy k-means++-style seeding and a fixed iteration budget.
func kmeans(unit []sparse.Vector, k int, seed int64, iters int) *Clustering {
	r := rand.New(rand.NewSource(seed))
	n := len(unit)
	centroids := seedCentroids(unit, k, r)
	// norms[c] is centroids[c].Norm(), taken once whenever the centroid
	// changes instead of once per object scored against it.
	norms := make([]float64, k)
	for c, cen := range centroids {
		norms[c] = cen.Norm()
	}
	assign := make([]int, n)
	for it := 0; it < iters; it++ {
		changed := false
		for i, v := range unit {
			best, bestSim := 0, -2.0
			for c, s := range v.Cosines(centroids, norms) {
				if s > bestSim {
					best, bestSim = c, s
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		// Recompute centroids; re-seed empty clusters from the object
		// farthest from its centroid.
		sums := make([]sparse.Vector, k)
		counts := make([]int, k)
		for c := range sums {
			sums[c] = sparse.New(8)
		}
		for i, v := range unit {
			sums[assign[i]].Add(v)
			counts[assign[i]]++
		}
		for c := range centroids {
			if counts[c] == 0 {
				far := farthestObject(unit, centroids, norms, assign)
				assign[far] = c
				centroids[c] = unit[far].Clone()
				changed = true
			} else {
				centroids[c] = sums[c]
				centroids[c].Normalize()
			}
			norms[c] = centroids[c].Norm()
		}
		if !changed {
			break
		}
	}
	return newClustering(unit, assign, k)
}

// seedCentroids picks k initial centroids: first uniformly, the rest
// preferring objects dissimilar from all chosen so far (k-means++ on
// cosine distance).
func seedCentroids(unit []sparse.Vector, k int, r *rand.Rand) []sparse.Vector {
	n := len(unit)
	centroids := make([]sparse.Vector, 0, k)
	centroids = append(centroids, unit[r.Intn(n)].Clone())
	for len(centroids) < k {
		weights := make([]float64, n)
		var total float64
		for i, v := range unit {
			best := -2.0
			for _, c := range centroids {
				if s := v.Cosine(c); s > best {
					best = s
				}
			}
			w := 1 - best // cosine distance to the closest centroid
			if w < 0 {
				w = 0
			}
			weights[i] = w * w
			total += weights[i]
		}
		if total == 0 {
			centroids = append(centroids, unit[r.Intn(n)].Clone())
			continue
		}
		x := r.Float64() * total
		for i, w := range weights {
			x -= w
			if x <= 0 || i == n-1 {
				centroids = append(centroids, unit[i].Clone())
				break
			}
		}
	}
	return centroids
}

// farthestObject finds the object least similar to its own centroid —
// the best candidate to re-seed an empty cluster. norms[c] must be the
// norm of centroids[c] as it stands, recomputed or not.
func farthestObject(unit []sparse.Vector, centroids []sparse.Vector, norms []float64, assign []int) int {
	worst, worstSim := 0, 2.0
	for i, v := range unit {
		a := assign[i]
		s := v.Cosines(centroids[a:a+1], norms[a:a+1])[0]
		if s < worstSim {
			worst, worstSim = i, s
		}
	}
	return worst
}
