// Package eval provides the evaluation metrics shared by the workflow
// experiments: classification metrics (precision, recall, F-measure,
// accuracy, confusion matrix), ranking metrics (precision@k, MRR), and
// k-fold splitting utilities.
package eval

import (
	"fmt"
	"math/rand"
	"sort"
)

// Confusion is a binary confusion matrix.
type Confusion struct {
	TP, FP, TN, FN int
}

// Add records one prediction.
func (c *Confusion) Add(predicted, actual bool) {
	switch {
	case predicted && actual:
		c.TP++
	case predicted && !actual:
		c.FP++
	case !predicted && !actual:
		c.TN++
	default:
		c.FN++
	}
}

// Precision returns TP/(TP+FP), 0 when undefined.
func (c Confusion) Precision() float64 {
	if c.TP+c.FP == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FP)
}

// Recall returns TP/(TP+FN), 0 when undefined.
func (c Confusion) Recall() float64 {
	if c.TP+c.FN == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FN)
}

// F1 returns the harmonic mean of precision and recall.
func (c Confusion) F1() float64 {
	p, r := c.Precision(), c.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// Accuracy returns (TP+TN)/total, 0 for an empty matrix.
func (c Confusion) Accuracy() float64 {
	total := c.TP + c.FP + c.TN + c.FN
	if total == 0 {
		return 0
	}
	return float64(c.TP+c.TN) / float64(total)
}

// String formats the matrix and derived metrics.
func (c Confusion) String() string {
	return fmt.Sprintf("TP=%d FP=%d TN=%d FN=%d P=%.3f R=%.3f F1=%.3f Acc=%.3f",
		c.TP, c.FP, c.TN, c.FN, c.Precision(), c.Recall(), c.F1(), c.Accuracy())
}

// PrecisionAtK returns the paper's Table 4 metric: the fraction of
// queries for which at least one of the first k ranked proposals is
// correct. correct[i] reports whether proposal i of a query is correct;
// one inner slice per query, ranked best-first.
func PrecisionAtK(results [][]bool, k int) float64 {
	if len(results) == 0 {
		return 0
	}
	hits := 0
	for _, props := range results {
		limit := k
		if limit > len(props) {
			limit = len(props)
		}
		for i := 0; i < limit; i++ {
			if props[i] {
				hits++
				break
			}
		}
	}
	return float64(hits) / float64(len(results))
}

// MRR returns the mean reciprocal rank of the first correct proposal
// per query (0 contribution when none is correct).
func MRR(results [][]bool) float64 {
	if len(results) == 0 {
		return 0
	}
	var sum float64
	for _, props := range results {
		for i, ok := range props {
			if ok {
				sum += 1 / float64(i+1)
				break
			}
		}
	}
	return sum / float64(len(results))
}

// Folds splits indices 0..n-1 into k shuffled folds for cross
// validation. The split is deterministic for a given seed. Fold sizes
// differ by at most one.
func Folds(n, k int, seed int64) [][]int {
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	r := rand.New(rand.NewSource(seed))
	r.Shuffle(n, func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	folds := make([][]int, k)
	for i, v := range idx {
		folds[i%k] = append(folds[i%k], v)
	}
	for _, f := range folds {
		sort.Ints(f)
	}
	return folds
}

// TrainTest returns the complement of fold (train) and the fold itself
// (test) as index slices.
func TrainTest(folds [][]int, fold int) (train, test []int) {
	for i, f := range folds {
		if i == fold {
			test = append(test, f...)
		} else {
			train = append(train, f...)
		}
	}
	return train, test
}

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
