package sparse

import "math"

// DF counts, per feature, the number of vectors in which the feature
// has non-zero weight (document frequency).
func DF(vecs []Vector) map[string]int {
	df := make(map[string]int)
	for _, v := range vecs {
		for k, w := range v {
			if w != 0 {
				df[k]++
			}
		}
	}
	return df
}

// TFIDF reweights each vector in place with the standard
// tf × log(N/df) scheme, where N is the number of vectors. Vectors are
// then L2-normalized, the preprocessing CLUTO applies before spherical
// k-means. Features occurring in every document get weight 0.
func TFIDF(vecs []Vector) {
	df := DF(vecs)
	n := float64(len(vecs))
	for _, v := range vecs {
		for k, w := range v {
			idf := math.Log(n / float64(df[k]))
			v[k] = w * idf
		}
		v.Normalize()
	}
}
