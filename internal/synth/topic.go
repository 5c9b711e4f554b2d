package synth

import (
	"math"
	"math/rand"
)

// Topic is a unigram language model over a small vocabulary with a
// Zipf-shaped rank-frequency curve: word i is sampled with probability
// proportional to 1/(i+1)^s. Each ontology concept (or word sense)
// owns one topic; the contexts of a term are sampled from the topics
// of its senses.
type Topic struct {
	Words []string // rank order: Words[0] is the most probable
	s     float64
	cum   []float64 // cumulative unnormalized mass
}

// NewTopic builds a topic over the given ranked words with Zipf
// exponent s (1.0 is the classic curve; higher concentrates mass).
func NewTopic(words []string, s float64) *Topic {
	t := &Topic{Words: words, s: s, cum: make([]float64, len(words))}
	var total float64
	for i := range words {
		total += 1 / math.Pow(float64(i+1), s)
		t.cum[i] = total
	}
	return t
}

// Sample draws one word.
func (t *Topic) Sample(r *rand.Rand) string {
	if len(t.Words) == 0 {
		return ""
	}
	total := t.cum[len(t.cum)-1]
	x := r.Float64() * total
	// Binary search the cumulative mass.
	lo, hi := 0, len(t.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if t.cum[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return t.Words[lo]
}

// Mixed builds a topic whose vocabulary interleaves a shared prefix
// (inherited from a parent topic) with fresh words — how related
// ontology concepts end up with overlapping but distinct contexts.
func Mixed(parent *Topic, fresh []string, parentShare float64, s float64) *Topic {
	var words []string
	if parent != nil && parentShare > 0 {
		n := int(float64(len(parent.Words)) * parentShare)
		if n > len(parent.Words) {
			n = len(parent.Words)
		}
		words = append(words, parent.Words[:n]...)
	}
	words = append(words, fresh...)
	return NewTopic(words, s)
}
