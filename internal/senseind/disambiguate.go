package senseind

import (
	"fmt"

	"bioenrich/internal/sparse"
)

// Disambiguator assigns new context windows of a term to one of its
// induced senses — the word-sense-disambiguation application the
// induced concepts enable once step III has run.
type Disambiguator struct {
	Term      string
	centroids []sparse.Vector // unit centroids, index = sense id
}

// NewDisambiguator builds a disambiguator from an induction result,
// over the full unit centroids of its senses.
func NewDisambiguator(res *Result) (*Disambiguator, error) {
	if res == nil || len(res.Senses) == 0 {
		return nil, fmt.Errorf("senseind: empty induction result")
	}
	d := &Disambiguator{Term: res.Term}
	for _, cen := range res.centroids {
		d.centroids = append(d.centroids, cen.Clone())
	}
	return d, nil
}

// Disambiguate returns the sense id whose centroid is most similar to
// the context's bag-of-words vector (cosine), and that similarity.
// Ties break toward the lower sense id.
func (d *Disambiguator) Disambiguate(context []string) (sense int, sim float64) {
	v := sparse.FromCounts(context)
	v.Normalize()
	best, bestSim := 0, -1.0
	for i, cen := range d.centroids {
		if s := v.Cosine(cen); s > bestSim {
			best, bestSim = i, s
		}
	}
	return best, bestSim
}
