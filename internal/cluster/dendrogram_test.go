package cluster

import (
	"testing"

	"bioenrich/internal/sparse"
)

func TestDendrogramCutMatchesAgglo(t *testing.T) {
	// Cutting the dendrogram at k must produce the same partition as a
	// direct agglomerative run to k (same greedy procedure).
	vecs, _ := blobs(3, 8, 51)
	dg, err := BuildDendrogram(vecs)
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= 5; k++ {
		fromCut, err := dg.Cut(k)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := Run(Agglo, vecs, k, 1)
		if err != nil {
			t.Fatal(err)
		}
		if fromCut.K != direct.K {
			t.Fatalf("k=%d: cut K=%d direct K=%d", k, fromCut.K, direct.K)
		}
		// Same partition up to label permutation: ARI — computed via
		// the external index — must be 1.
		if k > 1 {
			if ari := ARI(fromCut, direct.Assign); ari < 1-1e-9 {
				t.Errorf("k=%d: partitions differ (ARI=%v)", k, ari)
			}
		}
	}
}

func TestDendrogramCutBounds(t *testing.T) {
	vecs, _ := blobs(2, 4, 52)
	dg, err := BuildDendrogram(vecs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dg.Cut(0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := dg.Cut(dg.N() + 1); err == nil {
		t.Error("k>n accepted")
	}
	all, err := dg.Cut(dg.N())
	if err != nil {
		t.Fatal(err)
	}
	if all.K != dg.N() {
		t.Errorf("singleton cut K = %d", all.K)
	}
	one, err := dg.Cut(1)
	if err != nil {
		t.Fatal(err)
	}
	if one.K != 1 || one.Size(0) != dg.N() {
		t.Errorf("full cut K=%d size=%d", one.K, one.Size(0))
	}
}

func TestDendrogramEmpty(t *testing.T) {
	if _, err := BuildDendrogram(nil); err == nil {
		t.Error("empty input accepted")
	}
	single := []sparse.Vector{{"a": 1}}
	dg, err := BuildDendrogram(single)
	if err != nil {
		t.Fatal(err)
	}
	c, err := dg.Cut(1)
	if err != nil || c.K != 1 {
		t.Errorf("single object cut: %v %v", c, err)
	}
}
