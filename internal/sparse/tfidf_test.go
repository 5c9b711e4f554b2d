package sparse

import (
	"testing"
)

func TestDF(t *testing.T) {
	vecs := []Vector{{"a": 1, "b": 2}, {"a": 3}, {"b": 0}}
	df := DF(vecs)
	if df["a"] != 2 || df["b"] != 1 {
		t.Errorf("DF = %v", df)
	}
}

func TestTFIDF(t *testing.T) {
	vecs := []Vector{
		{"common": 1, "rare": 1},
		{"common": 1},
		{"common": 1},
	}
	TFIDF(vecs)
	// "common" occurs in all docs: idf = log(3/3) = 0.
	if vecs[0]["common"] != 0 {
		t.Errorf("common weight = %v, want 0", vecs[0]["common"])
	}
	// "rare" is the only non-zero feature in doc 0 and must normalize to 1.
	if !almostEqual(vecs[0]["rare"], 1) {
		t.Errorf("rare weight = %v, want 1", vecs[0]["rare"])
	}
	// All non-zero vectors are unit length.
	for i, v := range vecs {
		n := v.Norm()
		if n != 0 && !almostEqual(n, 1) {
			t.Errorf("vec %d norm = %v", i, n)
		}
	}
}
