package cluster

import (
	"math"
	"math/rand"
	"testing"

	"bioenrich/internal/sparse"
)

// TestDendrogramCutMatchesAgglo: cutting the merge tree at k gives
// exactly what merging greedily until k remain gives, and so does
// Run(Agglo, …, k) — the same labels, sizes, unit vectors, composites
// and total, bit for bit — for every k from 1 to n, on random inputs
// and on inputs made of duplicated vectors, whose tied merges must
// break the same way. A merge keeps the lower-indexed cluster and a cut
// numbers clusters by their lowest member, so even the labels agree.
func TestDendrogramCutMatchesAgglo(t *testing.T) {
	var sets [][]sparse.Vector
	for _, n := range []int{1, 2, 3, 7, 20, 41} {
		for seed := int64(1); seed <= 20; seed++ {
			sets = append(sets, randVecs(rand.New(rand.NewSource(seed*1000+int64(n))), n))
		}
	}
	for seed := int64(1); seed <= 10; seed++ {
		r := rand.New(rand.NewSource(seed))
		distinct := randVecs(r, 2+r.Intn(4))
		dups := make([]sparse.Vector, 8+r.Intn(16))
		for i := range dups {
			dups[i] = distinct[r.Intn(len(distinct))].Clone()
		}
		sets = append(sets, dups)
	}
	for si, vecs := range sets {
		unit := normalizeAll(vecs)
		tree := buildDendrogram(unit)
		for k := 1; k <= len(vecs); k++ {
			want := agglomerative(unit, k)
			if diff := sameClustering(tree.cut(k), want); diff != "" {
				t.Fatalf("set %d (n=%d) k=%d: cut: %s", si, len(vecs), k, diff)
			}
			run, err := Run(Agglo, vecs, k, 1)
			if err != nil {
				t.Fatal(err)
			}
			if diff := sameClustering(run, want); diff != "" {
				t.Fatalf("set %d (n=%d) k=%d: Run: %s", si, len(vecs), k, diff)
			}
		}
	}
}

// TestDendrogramCutBounds: the cut that replays no merge holds every
// object alone, and the cut that replays them all holds one cluster.
func TestDendrogramCutBounds(t *testing.T) {
	vecs, _ := blobs(2, 4, 52)
	tree := buildDendrogram(normalizeAll(vecs))
	n := len(vecs)
	if all := tree.cut(n); all.K != n {
		t.Errorf("singleton cut K = %d, want %d", all.K, n)
	}
	if one := tree.cut(1); one.K != 1 || one.Size(0) != n {
		t.Errorf("full cut K=%d size=%d", one.K, one.Size(0))
	}
}

// TestDendrogramEmpty: a single object's tree has no merges and cuts
// to one cluster, and no objects make no clustering.
func TestDendrogramEmpty(t *testing.T) {
	single := []sparse.Vector{{"a": 1}}
	tree := buildDendrogram(normalizeAll(single))
	if c := tree.cut(1); len(tree.merges) != 0 || c.K != 1 {
		t.Errorf("single object: %d merges, cut K = %d", len(tree.merges), c.K)
	}
	if _, err := Run(Agglo, nil, 1, 1); err == nil {
		t.Error("Run accepted no vectors")
	}
	if cs, err := Sweep(Agglo, nil, KMin, KMax, 1); err != nil || len(cs) != 0 {
		t.Errorf("Sweep of no vectors = %d clusterings, %v; want none", len(cs), err)
	}
}

// agglomerative is the reference for Run(Agglo, …, k): it merges
// singleton clusters greedily, by the same I2 rule as buildDendrogram,
// until k remain, and numbers the clusters by their surviving
// representatives. It is the procedure Run(Agglo) ran before the merge
// tree served every k, and the tests hold the tree's cuts to it.
func agglomerative(unit []sparse.Vector, k int) *Clustering {
	n := len(unit)
	// dots[i][j] = D_i · D_j for live clusters; norms2[i] = D_i · D_i.
	dots := make([][]float64, n)
	for i := range dots {
		dots[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		dots[i][i] = unit[i].Dot(unit[i])
		for j := i + 1; j < n; j++ {
			d := unit[i].Dot(unit[j])
			dots[i][j], dots[j][i] = d, d
		}
	}
	members := make([][]int, n)
	alive := make([]bool, n)
	norms := make([]float64, n)
	for i := range unit {
		members[i] = []int{i}
		alive[i] = true
		norms[i] = math.Sqrt(dots[i][i])
	}
	remaining := n
	for remaining > k {
		bestA, bestB := -1, -1
		bestDelta := math.Inf(-1)
		for a := 0; a < n; a++ {
			if !alive[a] {
				continue
			}
			for b := a + 1; b < n; b++ {
				if !alive[b] {
					continue
				}
				merged := math.Sqrt(dots[a][a] + dots[b][b] + 2*dots[a][b])
				delta := merged - norms[a] - norms[b]
				if delta > bestDelta {
					bestDelta, bestA, bestB = delta, a, b
				}
			}
		}
		// Merge B into A: update row/column A, kill B.
		for x := 0; x < n; x++ {
			if !alive[x] || x == bestA || x == bestB {
				continue
			}
			d := dots[bestA][x] + dots[bestB][x]
			dots[bestA][x], dots[x][bestA] = d, d
		}
		dots[bestA][bestA] += dots[bestB][bestB] + 2*dots[bestA][bestB]
		norms[bestA] = math.Sqrt(dots[bestA][bestA])
		members[bestA] = append(members[bestA], members[bestB]...)
		alive[bestB] = false
		remaining--
	}
	assign := make([]int, n)
	cid := 0
	for i := 0; i < n; i++ {
		if !alive[i] {
			continue
		}
		for _, m := range members[i] {
			assign[m] = cid
		}
		cid++
	}
	return newClustering(unit, assign, cid)
}
