package cluster

import (
	"cmp"
	"math"
	"slices"
)

// External cluster-quality indexes. The paper distinguishes two index
// families ("External indexes use pre-labelled data sets with 'known'
// cluster configurations. Internal indexes are used to evaluate the
// 'goodness' of a configuration without any prior knowledge") and
// builds its contribution on internal ones; the external family is
// implemented here for diagnostics on the labelled synthetic
// benchmarks.

// Purity returns the fraction of objects assigned to a cluster whose
// majority gold label they carry. In (0, 1]; 1 is a perfect (possibly
// over-split) clustering.
func Purity(c *Clustering, labels []int) float64 {
	if len(labels) != len(c.Assign) || len(labels) == 0 {
		return 0
	}
	total := 0
	for i := 0; i < c.K; i++ {
		counts := map[int]int{}
		for _, m := range c.Members(i) {
			counts[labels[m]]++
		}
		best := 0
		for _, n := range counts {
			if n > best {
				best = n
			}
		}
		total += best
	}
	return float64(total) / float64(len(labels))
}

// contingency builds the cluster × label contingency table plus
// marginals.
func contingency(c *Clustering, labels []int) (table map[[2]int]int, rowSum, colSum map[int]int) {
	table = map[[2]int]int{}
	rowSum = map[int]int{}
	colSum = map[int]int{}
	for i, a := range c.Assign {
		table[[2]int{a, labels[i]}]++
		rowSum[a]++
		colSum[labels[i]]++
	}
	return table, rowSum, colSum
}

// NMI returns the normalized mutual information between the clustering
// and the gold labels, in [0, 1] (normalization by the arithmetic mean
// of the entropies; 0 when either partition is trivial).
func NMI(c *Clustering, labels []int) float64 {
	n := float64(len(labels))
	if n == 0 || len(labels) != len(c.Assign) {
		return 0
	}
	table, rowSum, colSum := contingency(c, labels)
	// Float sums run in sorted key order: map order would change the
	// last bits from call to call.
	cells := make([][2]int, 0, len(table))
	for key := range table {
		cells = append(cells, key)
	}
	slices.SortFunc(cells, func(a, b [2]int) int {
		if a[0] != b[0] {
			return cmp.Compare(a[0], b[0])
		}
		return cmp.Compare(a[1], b[1])
	})
	var mi float64
	for _, key := range cells {
		nij := table[key]
		pij := float64(nij) / n
		pi := float64(rowSum[key[0]]) / n
		pj := float64(colSum[key[1]]) / n
		mi += pij * math.Log(pij/(pi*pj))
	}
	entropy := func(sums map[int]int) float64 {
		keys := make([]int, 0, len(sums))
		for k := range sums {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		var h float64
		for _, k := range keys {
			p := float64(sums[k]) / n
			h -= p * math.Log(p)
		}
		return h
	}
	hr, hc := entropy(rowSum), entropy(colSum)
	if hr == 0 || hc == 0 {
		return 0
	}
	return mi / ((hr + hc) / 2)
}

// ARI returns the adjusted Rand index between the clustering and the
// gold labels: 1 for identical partitions, ~0 for random agreement,
// possibly negative for adversarial ones.
func ARI(c *Clustering, labels []int) float64 {
	n := len(labels)
	if n == 0 || n != len(c.Assign) {
		return 0
	}
	table, rowSum, colSum := contingency(c, labels)
	// Pair counts are integers, so their sums do not depend on map
	// order.
	choose2 := func(x int) int { return x * (x - 1) / 2 }
	var sumIJ, sumI, sumJ int
	for _, nij := range table {
		sumIJ += choose2(nij)
	}
	for _, s := range rowSum {
		sumI += choose2(s)
	}
	for _, s := range colSum {
		sumJ += choose2(s)
	}
	totalPairs := float64(choose2(n))
	expected := float64(sumI) * float64(sumJ) / totalPairs
	maxIndex := float64(sumI+sumJ) / 2
	if maxIndex == expected {
		return 0
	}
	return (float64(sumIJ) - expected) / (maxIndex - expected)
}
