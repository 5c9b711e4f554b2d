// Package cluster re-implements the clustering substrate the paper
// uses through CLUTO: five algorithm families (rb, rbr, direct, agglo,
// graph) over cosine similarity with the I2 criterion, the ISIM /
// ESIM cluster quality statistics, and — the paper's contribution —
// the five new internal indexes of Table 2 used to predict the number
// of senses k of a candidate term.
package cluster

import (
	"fmt"
	"math"

	"bioenrich/internal/sparse"
)

// Clustering is a hard partition of a set of vectors into K clusters.
type Clustering struct {
	K      int
	Assign []int // Assign[i] ∈ [0, K) is the cluster of vector i

	vecs  []sparse.Vector // unit-normalized copies
	comp  []sparse.Vector // composite (sum) vector D_i per cluster
	total sparse.Vector   // sum over all vectors
	sizes []int
}

// newClustering normalizes the inputs and computes composites.
func newClustering(vecs []sparse.Vector, assign []int, k int) *Clustering {
	c := &Clustering{K: k, Assign: assign, vecs: vecs}
	c.recompute()
	return c
}

// normalizeAll returns unit-length copies of the vectors.
func normalizeAll(vecs []sparse.Vector) []sparse.Vector {
	out := make([]sparse.Vector, len(vecs))
	for i, v := range vecs {
		cp := v.Clone()
		cp.Normalize()
		out[i] = cp
	}
	return out
}

func (c *Clustering) recompute() {
	c.comp = make([]sparse.Vector, c.K)
	for i := range c.comp {
		c.comp[i] = sparse.New(16)
	}
	c.sizes = make([]int, c.K)
	for i, v := range c.vecs {
		a := c.Assign[i]
		c.comp[a].Add(v)
		c.sizes[a]++
	}
	if c.K == 1 {
		// The one composite is the total: the same adds in the same
		// order. Neither is modified once built.
		c.total = c.comp[0]
		return
	}
	c.total = sparse.New(16)
	for _, v := range c.vecs {
		c.total.Add(v)
	}
}

// Size returns the number of objects in cluster i.
func (c *Clustering) Size(i int) int { return c.sizes[i] }

// Members returns the indices assigned to cluster i.
func (c *Clustering) Members(i int) []int {
	var out []int
	for idx, a := range c.Assign {
		if a == i {
			out = append(out, idx)
		}
	}
	return out
}

// Centroid returns the (unnormalized mean) centroid of cluster i.
func (c *Clustering) Centroid(i int) sparse.Vector {
	cen := c.comp[i].Clone()
	if c.sizes[i] > 0 {
		cen.Scale(1 / float64(c.sizes[i]))
	}
	return cen
}

// ISIM returns the average pairwise cosine similarity among the
// objects of cluster i (1 for singletons, matching CLUTO's convention
// that a lone object is perfectly self-similar). For unit vectors the
// pairwise sum equals ‖D_i‖² − n_i, giving an O(|D_i|) computation.
func (c *Clustering) ISIM(i int) float64 {
	n := float64(c.sizes[i])
	if n <= 1 {
		return 1
	}
	d2 := c.comp[i].Dot(c.comp[i])
	return (d2 - n) / (n * (n - 1))
}

// ESIM returns the average cosine similarity between objects of
// cluster i and all objects outside it (0 when the cluster is empty or
// holds everything). Equals D_i · (D − D_i) / (n_i (N − n_i)).
func (c *Clustering) ESIM(i int) float64 {
	n := float64(c.sizes[i])
	rest := float64(len(c.vecs)) - n
	if n == 0 || rest == 0 {
		return 0
	}
	cross := c.comp[i].Dot(c.total) - c.comp[i].Dot(c.comp[i])
	return cross / (n * rest)
}

// I2 returns the CLUTO I2 criterion Σ_i ‖D_i‖ the algorithms maximize.
func (c *Clustering) I2() float64 {
	var sum float64
	for i := range c.comp {
		sum += math.Sqrt(c.comp[i].Dot(c.comp[i]))
	}
	return sum
}

// Validate checks the partition invariants (every assignment in range,
// sizes consistent).
func (c *Clustering) Validate() error {
	if len(c.Assign) != len(c.vecs) {
		return fmt.Errorf("cluster: %d assignments for %d vectors", len(c.Assign), len(c.vecs))
	}
	counts := make([]int, c.K)
	for i, a := range c.Assign {
		if a < 0 || a >= c.K {
			return fmt.Errorf("cluster: vector %d assigned to %d (k=%d)", i, a, c.K)
		}
		counts[a]++
	}
	for i, n := range counts {
		if n != c.sizes[i] {
			return fmt.Errorf("cluster: size cache stale for cluster %d", i)
		}
	}
	return nil
}
