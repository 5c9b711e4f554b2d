// Package sparse implements sparse real-valued vectors keyed by string
// features, the vector-space substrate for every similarity computation
// in the workflow: context bag-of-words vectors, TF-IDF weighting,
// cluster centroids, and cosine similarity.
package sparse

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Vector is a sparse map from feature to weight. The zero value (nil
// map) is a usable empty vector for read operations; use New or make
// before writing.
type Vector map[string]float64

// New returns an empty vector with capacity hint n.
func New(n int) Vector {
	return make(Vector, n)
}

// FromCounts builds a vector of raw term counts from a token stream.
func FromCounts(tokens []string) Vector {
	v := make(Vector, len(tokens))
	for _, t := range tokens {
		v[t]++
	}
	return v
}

// Clone returns a deep copy of v.
func (v Vector) Clone() Vector {
	out := make(Vector, len(v))
	for k, w := range v {
		out[k] = w
	}
	return out
}

// Add accumulates other into v in place.
func (v Vector) Add(other Vector) {
	for k, w := range other {
		v[k] += w
	}
}

// Scale multiplies every weight by s in place.
func (v Vector) Scale(s float64) {
	for k := range v {
		v[k] *= s
	}
}

// detSum sums xs in ascending value order (sorting in place). Float
// addition is not associative and Go randomizes map iteration, so an
// unordered reduction leaks iteration order into the low bits of every
// similarity — enough to flip sort ties and break the pipeline's
// byte-for-byte reproducibility across runs and worker counts.
// Sorting canonicalizes the order (equal multiset of terms → equal
// sum); ascending magnitude is also the numerically kinder order.
func detSum(xs []float64) float64 {
	sort.Float64s(xs)
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum
}

// Dot returns the inner product of v and other. Iterates over the
// smaller vector; the reduction is order-canonical (see detSum).
func (v Vector) Dot(other Vector) float64 {
	a, b := v, other
	if len(b) < len(a) {
		a, b = b, a
	}
	terms := make([]float64, 0, len(a))
	for k, w := range a {
		if bw, ok := b[k]; ok {
			terms = append(terms, w*bw)
		}
	}
	return detSum(terms)
}

// Norm returns the Euclidean (L2) norm.
func (v Vector) Norm() float64 {
	terms := make([]float64, 0, len(v))
	for _, w := range v {
		terms = append(terms, w*w)
	}
	return math.Sqrt(detSum(terms))
}

// Normalize scales v to unit L2 norm in place. A zero vector is left
// unchanged.
func (v Vector) Normalize() {
	n := v.Norm()
	if n == 0 {
		return
	}
	v.Scale(1 / n)
}

// Cosine returns the cosine similarity between v and other, in [−1, 1]
// for real weights and [0, 1] for non-negative weights. Either vector
// being zero yields 0.
func (v Vector) Cosine(other Vector) float64 {
	nv, no := v.Norm(), other.Norm()
	if nv == 0 || no == 0 {
		return 0
	}
	c := v.Dot(other) / (nv * no)
	// Clamp floating-point drift so callers can rely on the bound.
	if c > 1 {
		c = 1
	} else if c < -1 {
		c = -1
	}
	return c
}

// Cosines scores v against many vectors at once: out[i] is bit for bit
// v.Cosine(others[i]), given norms[i] == others[i].Norm(). Callers that
// compare against the same vectors repeatedly keep their norms, so the
// only norm computed here is v's, once. Each pair's products go through
// one reused buffer and the same detSum, zero checks and clamp as
// Cosine.
func (v Vector) Cosines(others []Vector, norms []float64) []float64 {
	out := make([]float64, len(others))
	nv := v.Norm()
	if nv == 0 {
		return out
	}
	keys := make([]string, 0, len(v))
	vals := make([]float64, 0, len(v))
	for k, w := range v {
		keys = append(keys, k)
		vals = append(vals, w)
	}
	// A pair has at most len(v) products, so terms never grows.
	terms := make([]float64, 0, len(v))
	for i, o := range others {
		no := norms[i]
		if no == 0 {
			continue
		}
		terms = terms[:0]
		// Iterate the smaller side, as Dot does.
		if len(o) < len(v) {
			for k, ow := range o {
				if vw, ok := v[k]; ok {
					terms = append(terms, ow*vw)
				}
			}
		} else {
			for j, k := range keys {
				if ow, ok := o[k]; ok {
					terms = append(terms, vals[j]*ow)
				}
			}
		}
		c := detSum(terms) / (nv * no)
		if c > 1 {
			c = 1
		} else if c < -1 {
			c = -1
		}
		out[i] = c
	}
	return out
}

// Top returns the n highest-weighted features in descending weight
// order (ties broken alphabetically for determinism).
func (v Vector) Top(n int) []Entry {
	entries := make([]Entry, 0, len(v))
	for k, w := range v {
		entries = append(entries, Entry{Feature: k, Weight: w})
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].Weight != entries[j].Weight {
			return entries[i].Weight > entries[j].Weight
		}
		return entries[i].Feature < entries[j].Feature
	})
	if n < len(entries) {
		entries = entries[:n]
	}
	return entries
}

// Entry is a (feature, weight) pair produced by Top.
type Entry struct {
	Feature string
	Weight  float64
}

// String renders the entry as "feature:weight".
func (e Entry) String() string {
	return fmt.Sprintf("%s:%.4f", e.Feature, e.Weight)
}

// String renders the vector's top entries, mainly for debugging.
func (v Vector) String() string {
	top := v.Top(8)
	parts := make([]string, len(top))
	for i, e := range top {
		parts[i] = e.String()
	}
	return "{" + strings.Join(parts, " ") + "}"
}
