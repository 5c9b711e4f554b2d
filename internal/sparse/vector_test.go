package sparse

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b float64) bool {
	return math.Abs(a-b) < 1e-9
}

func TestFromCounts(t *testing.T) {
	v := FromCounts([]string{"a", "b", "a", "c", "a"})
	if v["a"] != 3 || v["b"] != 1 || v["c"] != 1 {
		t.Errorf("FromCounts = %v", v)
	}
}

func TestDotAndNorm(t *testing.T) {
	a := Vector{"x": 1, "y": 2}
	b := Vector{"y": 3, "z": 4}
	if got := a.Dot(b); !almostEqual(got, 6) {
		t.Errorf("Dot = %v, want 6", got)
	}
	if got := a.Norm(); !almostEqual(got, math.Sqrt(5)) {
		t.Errorf("Norm = %v", got)
	}
}

func TestCosine(t *testing.T) {
	a := Vector{"x": 1}
	b := Vector{"x": 5}
	if got := a.Cosine(b); !almostEqual(got, 1) {
		t.Errorf("parallel cosine = %v, want 1", got)
	}
	c := Vector{"y": 1}
	if got := a.Cosine(c); !almostEqual(got, 0) {
		t.Errorf("orthogonal cosine = %v, want 0", got)
	}
	if got := a.Cosine(Vector{}); got != 0 {
		t.Errorf("zero-vector cosine = %v, want 0", got)
	}
}

func TestNormalize(t *testing.T) {
	v := Vector{"a": 3, "b": 4}
	v.Normalize()
	if !almostEqual(v.Norm(), 1) {
		t.Errorf("norm after Normalize = %v", v.Norm())
	}
	z := Vector{}
	z.Normalize() // must not panic or NaN
	if z.Norm() != 0 {
		t.Error("zero vector changed")
	}
}

func TestAddScaleClone(t *testing.T) {
	a := Vector{"x": 1}
	b := a.Clone()
	b.Add(Vector{"x": 2, "y": 1})
	b.Scale(2)
	if a["x"] != 1 {
		t.Error("Clone not deep")
	}
	if b["x"] != 6 || b["y"] != 2 {
		t.Errorf("Add/Scale = %v", b)
	}
}

func TestTop(t *testing.T) {
	v := Vector{"b": 2, "a": 2, "c": 5}
	top := v.Top(2)
	if len(top) != 2 || top[0].Feature != "c" || top[1].Feature != "a" {
		t.Errorf("Top = %v", top)
	}
	if got := v.Top(10); len(got) != 3 {
		t.Errorf("Top(10) len = %d", len(got))
	}
}

// randVec builds a small random non-negative vector for property tests.
func randVec(r *rand.Rand) Vector {
	v := New(8)
	n := r.Intn(8)
	for i := 0; i < n; i++ {
		v[string(rune('a'+r.Intn(12)))] = r.Float64() * 10
	}
	return v
}

func TestCosineBoundsProperty(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		a, b := randVec(r), randVec(r)
		c := a.Cosine(b)
		if c < 0 || c > 1 {
			t.Fatalf("cosine out of [0,1] for non-negative vecs: %v", c)
		}
		if !almostEqual(c, b.Cosine(a)) {
			t.Fatalf("cosine not symmetric: %v vs %v", c, b.Cosine(a))
		}
	}
}

func TestDotSymmetryProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randVec(r), randVec(r)
		return almostEqual(a.Dot(b), b.Dot(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
