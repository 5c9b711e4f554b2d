package cluster

import (
	"fmt"
	"math"
	"slices"

	"bioenrich/internal/sparse"
)

// Index names one of the paper's five new internal clustering-quality
// indexes (Table 2), used to choose the number of clusters k.
type Index string

// The Table 2 indexes. AK, CK, EK, FK are maximized over k; BK is
// minimized.
const (
	AK Index = "ak" // average of ISIM                          (max)
	BK Index = "bk" // average of ESIM                          (min)
	CK Index = "ck" // avg of |S_i|·(ISIM_i − ESIM_i)           (max)
	EK Index = "ek" // Σ|S_i|·ISIM_i / Σ|S_i|·ESIM_i            (max)
	FK Index = "fk" // (Σ ISIM_i / k) / log10(k)                (max)
)

// Indexes lists all five in the paper's order.
var Indexes = []Index{AK, BK, CK, EK, FK}

// Maximize reports whether the index is argmax-selected (BK is the
// only argmin index).
func (ix Index) Maximize() bool { return ix != BK }

// Value computes the index on a clustering. Definitions follow the
// paper's Table 2; where the printed formulas subscript ISIM/ESIM with
// k instead of i (c_k, e_k) we read them as the per-cluster values —
// the only reading under which the sums are well-formed.
func (ix Index) Value(c *Clustering) float64 {
	k := float64(c.K)
	switch ix {
	case AK:
		var sum float64
		for i := 0; i < c.K; i++ {
			sum += c.ISIM(i)
		}
		return sum / k
	case BK:
		var sum float64
		for i := 0; i < c.K; i++ {
			sum += c.ESIM(i)
		}
		return sum / k
	case CK:
		var sum float64
		for i := 0; i < c.K; i++ {
			sum += float64(c.Size(i)) * (c.ISIM(i) - c.ESIM(i))
		}
		return sum / k
	case EK:
		var num, den float64
		for i := 0; i < c.K; i++ {
			num += float64(c.Size(i)) * c.ISIM(i)
			den += float64(c.Size(i)) * c.ESIM(i)
		}
		if den == 0 {
			return math.Inf(1)
		}
		return num / den
	case FK:
		var sum float64
		for i := 0; i < c.K; i++ {
			sum += c.ISIM(i)
		}
		avg := sum / k
		l := math.Log10(k)
		if l == 0 {
			return math.Inf(1) // k = 1 is outside the paper's [2,5] sweep
		}
		return avg / l
	case Silhouette:
		return silhouetteValue(c)
	}
	panic(fmt.Sprintf("cluster: unknown index %q", ix))
}

// KRange is the paper's sense-count search space: UMLS statistics
// (Table 1) show biomedical polysemic terms carry 2–5 senses, so the
// sweep is bounded accordingly.
const (
	KMin = 2
	KMax = 5
)

// Best returns the first of the clusterings with the best value of
// the index (the highest, or for BK the lowest), or nil when there are
// none.
func (ix Index) Best(clusterings []*Clustering) *Clustering {
	var best *Clustering
	var bestVal float64
	for _, c := range clusterings {
		v := ix.Value(c)
		if best == nil || (ix.Maximize() && v > bestVal) || (!ix.Maximize() && v < bestVal) {
			best, bestVal = c, v
		}
	}
	return best
}

// PredictK sweeps k over [kmin, kmax] with alg and returns the k whose
// clustering the index selects, and that clustering. k values the
// objects or the algorithm cannot honour are skipped; if none is
// left an error is returned. An index that is neither one of Indexes
// nor Silhouette is refused before any clustering.
func PredictK(alg Algorithm, ix Index, vecs []sparse.Vector, kmin, kmax int, seed int64) (int, *Clustering, error) {
	if !slices.Contains(Indexes, ix) && ix != Silhouette {
		return 0, nil, fmt.Errorf("cluster: unknown index %q", ix)
	}
	clusterings, err := Sweep(alg, vecs, kmin, kmax, seed)
	if err != nil {
		return 0, nil, err
	}
	best := ix.Best(clusterings)
	if best == nil {
		return 0, nil, fmt.Errorf("cluster: no feasible k in [%d,%d] for %d objects",
			kmin, kmax, len(vecs))
	}
	return best.K, best, nil
}
