package senseind

import (
	"fmt"

	"bioenrich/internal/sparse"
)

// Disambiguator assigns new context windows of a term to one of its
// induced senses — the word-sense-disambiguation application the
// induced concepts enable once step III has run.
type Disambiguator struct {
	Term           string
	Representation Representation
	centroids      []sparse.Vector // unit centroids, index = sense id
}

// NewDisambiguator builds a disambiguator from the term's original
// contexts and the clustering-backed induction result. The contexts
// must be the same set (in any order is fine: assignment is recomputed
// against the induced sense centroids derived from Result.Senses'
// feature weights).
func NewDisambiguator(res *Result, rep Representation) (*Disambiguator, error) {
	if res == nil || len(res.Senses) == 0 {
		return nil, fmt.Errorf("senseind: empty induction result")
	}
	d := &Disambiguator{Term: res.Term, Representation: rep}
	if len(res.centroids) == len(res.Senses) {
		// Full centroids available from the induction run.
		for _, cen := range res.centroids {
			d.centroids = append(d.centroids, cen.Clone())
		}
		return d, nil
	}
	// Fallback (e.g. a Result deserialized without centroids): rebuild
	// approximate centroids from the truncated feature lists.
	for _, s := range res.Senses {
		cen := sparse.New(len(s.Features))
		for _, e := range s.Features {
			cen[e.Feature] = e.Weight
		}
		cen.Normalize()
		d.centroids = append(d.centroids, cen)
	}
	return d, nil
}

// Disambiguate returns the sense id whose centroid is most similar to
// the context (cosine), and that similarity. Ties break toward the
// lower sense id.
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
