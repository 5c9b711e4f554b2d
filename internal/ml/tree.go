package ml

import (
	"math"
	"sort"
)

// DecisionTree is a CART binary decision tree with Gini impurity
// splits.
type DecisionTree struct {
	MaxDepth    int // default 8
	MinLeafSize int // default 2
	// FeatureSubset, when > 0, limits each split to a random subset of
	// that many features (used by RandomForest); 0 means all features.
	FeatureSubset int
	Seed          int64

	root *treeNode
	rng  *splitRNG
}

// NewDecisionTree returns a tree with sensible defaults.
func NewDecisionTree() *DecisionTree {
	return &DecisionTree{MaxDepth: 8, MinLeafSize: 2, Seed: 1}
}

// Name implements Classifier.
func (m *DecisionTree) Name() string { return "decision-tree" }

type treeNode struct {
	feature     int
	threshold   float64
	left, right *treeNode
	leaf        bool
	prediction  bool
}

// splitRNG is a tiny xorshift so the tree does not need math/rand
// state shared with forests.
type splitRNG struct{ state uint64 }

func newSplitRNG(seed int64) *splitRNG {
	s := uint64(seed)*2685821657736338717 + 1
	return &splitRNG{state: s}
}

func (r *splitRNG) next() uint64 {
	r.state ^= r.state << 13
	r.state ^= r.state >> 7
	r.state ^= r.state << 17
	return r.state
}

func (r *splitRNG) intn(n int) int { return int(r.next() % uint64(n)) }

// Fit implements Classifier.
func (m *DecisionTree) Fit(X [][]float64, y []bool) error {
	if err := validate(X, y); err != nil {
		return err
	}
	m.rng = newSplitRNG(m.Seed)
	idx := make([]int, len(X))
	for i := range idx {
		idx[i] = i
	}
	xc := copyMatrix(X)
	yc := append([]bool(nil), y...)
	m.root = m.grow(xc, yc, idx, 0)
	return nil
}

func gini(pos, total int) float64 {
	if total == 0 {
		return 0
	}
	p := float64(pos) / float64(total)
	return 2 * p * (1 - p)
}

func (m *DecisionTree) grow(X [][]float64, y []bool, idx []int, depth int) *treeNode {
	pos := 0
	for _, i := range idx {
		if y[i] {
			pos++
		}
	}
	if depth >= m.MaxDepth || len(idx) < 2*m.MinLeafSize || pos == 0 || pos == len(idx) {
		return &treeNode{leaf: true, prediction: pos*2 >= len(idx)}
	}
	d := len(X[0])
	features := make([]int, d)
	for j := range features {
		features[j] = j
	}
	if m.FeatureSubset > 0 && m.FeatureSubset < d {
		// Fisher–Yates partial shuffle for the subset.
		for j := 0; j < m.FeatureSubset; j++ {
			k := j + m.rng.intn(d-j)
			features[j], features[k] = features[k], features[j]
		}
		features = features[:m.FeatureSubset]
	}

	bestGain := -1.0
	bestFeature := -1
	bestThreshold := 0.0
	parentImpurity := gini(pos, len(idx))

	vals := make([]float64, 0, len(idx))
	for _, f := range features {
		vals = vals[:0]
		for _, i := range idx {
			vals = append(vals, X[i][f])
		}
		sort.Float64s(vals)
		for v := 1; v < len(vals); v++ {
			if vals[v] == vals[v-1] {
				continue
			}
			threshold := (vals[v] + vals[v-1]) / 2
			var lp, lt, rp, rt int
			for _, i := range idx {
				if X[i][f] <= threshold {
					lt++
					if y[i] {
						lp++
					}
				} else {
					rt++
					if y[i] {
						rp++
					}
				}
			}
			if lt < m.MinLeafSize || rt < m.MinLeafSize {
				continue
			}
			n := float64(len(idx))
			gain := parentImpurity -
				(float64(lt)/n)*gini(lp, lt) - (float64(rt)/n)*gini(rp, rt)
			if gain > bestGain {
				bestGain, bestFeature, bestThreshold = gain, f, threshold
			}
		}
	}
	if bestFeature < 0 || bestGain <= 1e-12 {
		return &treeNode{leaf: true, prediction: pos*2 >= len(idx)}
	}
	var leftIdx, rightIdx []int
	for _, i := range idx {
		if X[i][bestFeature] <= bestThreshold {
			leftIdx = append(leftIdx, i)
		} else {
			rightIdx = append(rightIdx, i)
		}
	}
	return &treeNode{
		feature:   bestFeature,
		threshold: bestThreshold,
		left:      m.grow(X, y, leftIdx, depth+1),
		right:     m.grow(X, y, rightIdx, depth+1),
	}
}

// Predict implements Classifier.
func (m *DecisionTree) Predict(x []float64) bool {
	n := m.root
	for n != nil && !n.leaf {
		v := math.Inf(-1)
		if n.feature < len(x) {
			v = x[n.feature]
		}
		if v <= n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	if n == nil {
		return false
	}
	return n.prediction
}

// Depth returns the tree's depth (diagnostics).
func (m *DecisionTree) Depth() int {
	var walk func(*treeNode) int
	walk = func(n *treeNode) int {
		if n == nil || n.leaf {
			return 0
		}
		l, r := walk(n.left), walk(n.right)
		if l > r {
			return l + 1
		}
		return r + 1
	}
	return walk(m.root)
}
