package sparse

import (
	"fmt"
	"math"
	"slices"
	"testing"
)

// irregularVector builds a vector with weights of wildly different
// magnitudes, so any change in float summation order is near-certain
// to change the low bits of a reduction.
func irregularVector(n int, scale float64) Vector {
	v := New(n)
	for i := 0; i < n; i++ {
		v[feature(i)] = scale * math.Pow(1.37, float64(i%40)) / float64(i+1)
	}
	return v
}

func feature(i int) string { return fmt.Sprintf("f%03d", i) }

// TestReductionsOrderCanonical pins the determinism contract of every
// float reduction: repeated calls on the same vectors return bitwise
// identical results even though Go randomizes map iteration order per
// range loop. This is what makes the parallel enrichment pipeline's
// reports byte-for-byte reproducible.
func TestReductionsOrderCanonical(t *testing.T) {
	a := irregularVector(300, 1)
	b := irregularVector(300, 1e-7)
	wantDot := a.Dot(b)
	wantNorm := a.Norm()
	wantCos := a.Cosine(b)
	others, norms := []Vector{b, a}, []float64{b.Norm(), a.Norm()}
	wantCoses := a.Cosines(others, norms)
	for i := 0; i < 200; i++ {
		if got := a.Dot(b); got != wantDot {
			t.Fatalf("Dot drifted at call %d: %v != %v", i, got, wantDot)
		}
		if got := a.Norm(); got != wantNorm {
			t.Fatalf("Norm drifted at call %d: %v != %v", i, got, wantNorm)
		}
		if got := a.Cosine(b); got != wantCos {
			t.Fatalf("Cosine drifted at call %d: %v != %v", i, got, wantCos)
		}
		if got := a.Cosines(others, norms); !slices.Equal(got, wantCoses) {
			t.Fatalf("Cosines drifted at call %d: %v != %v", i, got, wantCoses)
		}
	}
}

// checkCosines asserts the Cosines contract: given each other's Norm,
// every score is bit for bit what Cosine returns for that pair.
func checkCosines(t *testing.T, v Vector, others []Vector) {
	t.Helper()
	norms := make([]float64, len(others))
	for i, o := range others {
		norms[i] = o.Norm()
	}
	got := v.Cosines(others, norms)
	if len(got) != len(others) {
		t.Fatalf("Cosines returned %d scores for %d vectors", len(got), len(others))
	}
	for i, o := range others {
		if want := v.Cosine(o); math.Float64bits(got[i]) != math.Float64bits(want) {
			t.Errorf("Cosines[%d] = %v (%#x), Cosine = %v (%#x)",
				i, got[i], math.Float64bits(got[i]), want, math.Float64bits(want))
		}
	}
}

// TestCosinesMatchCosine pins Cosines to Cosine bit for bit over
// irregular weights, against others smaller, as large as and larger
// than v, empty others (norm 0), v itself and its negation (the clamp
// at both ends), and for an empty v.
func TestCosinesMatchCosine(t *testing.T) {
	v := irregularVector(300, 1)
	others := []Vector{
		irregularVector(40, 3),
		irregularVector(300, 1e-7),
		irregularVector(900, 0.5),
		{},
		nil,
		v,
		irregularVector(300, -1),
	}
	checkCosines(t, v, others)
	checkCosines(t, Vector{}, others)
	checkCosines(t, v, nil)
}

// TestReductionsInsertionOrderIndependent pins the same contract
// across differently-built maps: the reduction must depend only on the
// (feature, weight) multiset, not on how the map was populated.
func TestReductionsInsertionOrderIndependent(t *testing.T) {
	fwd := New(100)
	rev := New(100)
	for i := 0; i < 100; i++ {
		fwd[feature(i)] = float64(i) * 0.1
	}
	for i := 99; i >= 0; i-- {
		rev[feature(i)] = float64(i) * 0.1
	}
	probe := irregularVector(100, 1)
	if fwd.Norm() != rev.Norm() {
		t.Errorf("Norm depends on insertion order: %v != %v", fwd.Norm(), rev.Norm())
	}
	if fwd.Dot(probe) != rev.Dot(probe) {
		t.Errorf("Dot depends on insertion order: %v != %v", fwd.Dot(probe), rev.Dot(probe))
	}
}
