package senseind

import (
	"fmt"

	"sort"

	"bioenrich/internal/cluster"
	"bioenrich/internal/sparse"
	"bioenrich/internal/synth"
)

// GridCell is one configuration of the E1 experiment grid
// (algorithm × index × representation).
type GridCell struct {
	Algorithm      cluster.Algorithm
	Index          cluster.Index
	Representation Representation
	Accuracy       float64
}

// String renders the cell compactly.
func (g GridCell) String() string {
	return fmt.Sprintf("%-6s %-3s %-5s %.3f",
		g.Algorithm, g.Index, g.Representation, g.Accuracy)
}

// EvaluateGrid runs the full experiment grid and returns the cells
// sorted by accuracy (best first). This regenerates the paper's §3(i)
// result table ("bag-of-words and graph representations obtain similar
// accuracy values ... maximum 93.1% by max(fk)").
// The clusterings for a given (algorithm, representation, entity, k)
// do not depend on the index, so each is computed once and scored by
// every index — a |indexes|× saving over naive per-cell evaluation.
func EvaluateGrid(ds *synth.WSDDataset, algorithms []cluster.Algorithm,
	indexes []cluster.Index, reps []Representation, seed int64) ([]GridCell, error) {
	var cells []GridCell
	for _, rep := range reps {
		// Vectorize every entity once per representation.
		type entityVectors struct {
			vecs  []sparse.Vector
			trueK int
		}
		entityVecs := make([]entityVectors, len(ds.Entities))
		for i, e := range ds.Entities {
			entityVecs[i] = entityVectors{vecs: Vectorize(e.Contexts, rep), trueK: e.K}
		}
		for _, alg := range algorithms {
			correct := make(map[cluster.Index]int, len(indexes))
			for _, ev := range entityVecs {
				best := make(map[cluster.Index]int, len(indexes))
				bestVal := make(map[cluster.Index]float64, len(indexes))
				// Agglomerative clusterings for all k come from one
				// dendrogram build instead of one run per k.
				var dg *cluster.Dendrogram
				if alg == cluster.Agglo {
					var err error
					if dg, err = cluster.BuildDendrogram(ev.vecs); err != nil {
						return nil, fmt.Errorf("senseind: grid agglo/%s: %w", rep, err)
					}
				}
				for k := cluster.KMin; k <= cluster.KMax; k++ {
					if k > len(ev.vecs) {
						break
					}
					var c *cluster.Clustering
					var err error
					if dg != nil {
						c, err = dg.Cut(k)
					} else {
						c, err = cluster.Run(alg, ev.vecs, k, seed)
					}
					if err != nil {
						return nil, fmt.Errorf("senseind: grid %s/%s k=%d: %w", alg, rep, k, err)
					}
					if c.K != k {
						continue
					}
					for _, ix := range indexes {
						v := ix.Value(c)
						_, seen := best[ix]
						if !seen ||
							(ix.Maximize() && v > bestVal[ix]) ||
							(!ix.Maximize() && v < bestVal[ix]) {
							best[ix], bestVal[ix] = k, v
						}
					}
				}
				for _, ix := range indexes {
					if best[ix] == ev.trueK {
						correct[ix]++
					}
				}
			}
			for _, ix := range indexes {
				cells = append(cells, GridCell{
					Algorithm: alg, Index: ix, Representation: rep,
					Accuracy: float64(correct[ix]) / float64(len(ds.Entities)),
				})
			}
		}
	}
	sort.Slice(cells, func(i, j int) bool {
		if cells[i].Accuracy != cells[j].Accuracy {
			return cells[i].Accuracy > cells[j].Accuracy
		}
		return cells[i].String() < cells[j].String()
	})
	return cells, nil
}
