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
// Each entity is vectorized once per representation and swept once per
// algorithm (cluster.Sweep, k = KMin..KMax); every index then selects
// its k from that one sweep, since the clusterings do not depend on
// the index.
func EvaluateGrid(ds *synth.WSDDataset, algorithms []cluster.Algorithm,
	indexes []cluster.Index, reps []Representation, seed int64) ([]GridCell, error) {
	var cells []GridCell
	for _, rep := range reps {
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
				swept, err := cluster.Sweep(alg, ev.vecs, cluster.KMin, cluster.KMax, seed)
				if err != nil {
					return nil, fmt.Errorf("senseind: grid %s/%s: %w", alg, rep, err)
				}
				for _, ix := range indexes {
					if best := ix.Best(swept); best != nil && best.K == ev.trueK {
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
