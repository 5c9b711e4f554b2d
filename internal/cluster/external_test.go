package cluster

import (
	"math"
	"math/rand"
	"testing"
)

// perfectAndRandom builds a clustering that exactly matches the gold
// labels on separable blobs.
func perfectClustering(t *testing.T, k int) (*Clustering, []int) {
	t.Helper()
	vecs, labels := blobs(k, 10, 41)
	c, err := Run(Direct, vecs, k, 1)
	if err != nil {
		t.Fatal(err)
	}
	return c, labels
}

func TestPurityPerfect(t *testing.T) {
	c, labels := perfectClustering(t, 3)
	if p := Purity(c, labels); p != 1 {
		t.Errorf("purity = %v on separable blobs", p)
	}
}

func TestPurityBounds(t *testing.T) {
	c, labels := perfectClustering(t, 2)
	// Scrambled labels: purity drops but stays ≥ 1/k.
	scrambled := make([]int, len(labels))
	for i := range scrambled {
		scrambled[i] = i % 2
	}
	p := Purity(c, scrambled)
	if p < 0.5-1e-9 || p > 1 {
		t.Errorf("purity = %v", p)
	}
	if Purity(c, nil) != 0 {
		t.Error("length mismatch not handled")
	}
}

func TestNMIPerfectAndBounds(t *testing.T) {
	c, labels := perfectClustering(t, 3)
	if nmi := NMI(c, labels); math.Abs(nmi-1) > 1e-9 {
		t.Errorf("NMI = %v on perfect clustering", nmi)
	}
	// Constant gold labels: NMI defined as 0.
	constant := make([]int, len(labels))
	if nmi := NMI(c, constant); nmi != 0 {
		t.Errorf("NMI vs constant labels = %v", nmi)
	}
	if NMI(c, nil) != 0 {
		t.Error("length mismatch not handled")
	}
}

func TestARIPerfect(t *testing.T) {
	c, labels := perfectClustering(t, 3)
	if ari := ARI(c, labels); math.Abs(ari-1) > 1e-9 {
		t.Errorf("ARI = %v on perfect clustering", ari)
	}
}

func TestARINearZeroForRandom(t *testing.T) {
	c, labels := perfectClustering(t, 3)
	// Cyclic permutation of labels unrelated to clusters.
	random := make([]int, len(labels))
	for i := range random {
		random[i] = i % 3
	}
	ari := ARI(c, random)
	if ari > 0.3 || ari < -0.3 {
		t.Errorf("ARI vs random labels = %v, want ≈ 0", ari)
	}
	if ARI(c, nil) != 0 {
		t.Error("length mismatch not handled")
	}
}

func TestExternalOrderingProperty(t *testing.T) {
	// On the same data, the perfect labelling scores at least as high
	// as a degraded labelling for all three external indexes.
	c, labels := perfectClustering(t, 3)
	degraded := append([]int(nil), labels...)
	for i := 0; i < len(degraded); i += 3 {
		degraded[i] = (degraded[i] + 1) % 3
	}
	if Purity(c, labels) < Purity(c, degraded) {
		t.Error("purity ordering violated")
	}
	if NMI(c, labels) < NMI(c, degraded) {
		t.Error("NMI ordering violated")
	}
	if ARI(c, labels) < ARI(c, degraded) {
		t.Error("ARI ordering violated")
	}
}

// TestNMIRepeatable: NMI sums its float terms in sorted key order, so
// repeated calls on one clustering return identical bits. Summed in map
// order, the last bits changed from call to call.
func TestNMIRepeatable(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	c := &Clustering{K: 7, Assign: make([]int, 300)}
	labels := make([]int, len(c.Assign))
	for i := range c.Assign {
		c.Assign[i] = r.Intn(c.K)
		labels[i] = 3 * r.Intn(11)
	}
	first := math.Float64bits(NMI(c, labels))
	for call := 0; call < 200; call++ {
		if got := math.Float64bits(NMI(c, labels)); got != first {
			t.Fatalf("call %d: NMI bits %#x, first call %#x", call, got, first)
		}
	}
}
