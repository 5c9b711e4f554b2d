package eval

import (
	"math"
	"testing"
	"testing/quick"
)

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestConfusion(t *testing.T) {
	var c Confusion
	c.Add(true, true)   // TP
	c.Add(true, false)  // FP
	c.Add(false, false) // TN
	c.Add(false, true)  // FN
	if c.TP != 1 || c.FP != 1 || c.TN != 1 || c.FN != 1 {
		t.Fatalf("matrix = %+v", c)
	}
	if !approx(c.Precision(), 0.5) || !approx(c.Recall(), 0.5) {
		t.Error("P/R wrong")
	}
	if !approx(c.F1(), 0.5) || !approx(c.Accuracy(), 0.5) {
		t.Error("F1/Acc wrong")
	}
}

func TestConfusionEmpty(t *testing.T) {
	var c Confusion
	if c.Precision() != 0 || c.Recall() != 0 || c.F1() != 0 || c.Accuracy() != 0 {
		t.Error("empty confusion nonzero")
	}
}

func TestPrecisionAtK(t *testing.T) {
	results := [][]bool{
		{true, false, false},  // hit at 1
		{false, true, false},  // hit at 2
		{false, false, false}, // no hit
	}
	if got := PrecisionAtK(results, 1); !approx(got, 1.0/3) {
		t.Errorf("P@1 = %v", got)
	}
	if got := PrecisionAtK(results, 2); !approx(got, 2.0/3) {
		t.Errorf("P@2 = %v", got)
	}
	if got := PrecisionAtK(results, 10); !approx(got, 2.0/3) {
		t.Errorf("P@10 = %v", got)
	}
	if got := PrecisionAtK(nil, 5); got != 0 {
		t.Errorf("empty P@k = %v", got)
	}
}

func TestPrecisionAtKMonotone(t *testing.T) {
	f := func(seed int64) bool {
		results := [][]bool{
			{seed%2 == 0, seed%3 == 0, true},
			{seed%5 == 0, false, seed%7 == 0},
		}
		prev := 0.0
		for k := 1; k <= 3; k++ {
			p := PrecisionAtK(results, k)
			if p < prev-1e-12 {
				return false
			}
			prev = p
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMRR(t *testing.T) {
	results := [][]bool{
		{true},         // rr = 1
		{false, true},  // rr = 1/2
		{false, false}, // rr = 0
	}
	if got := MRR(results); !approx(got, (1+0.5)/3) {
		t.Errorf("MRR = %v", got)
	}
	if MRR(nil) != 0 {
		t.Error("empty MRR nonzero")
	}
}

func TestFolds(t *testing.T) {
	folds := Folds(10, 3, 1)
	if len(folds) != 3 {
		t.Fatalf("folds = %d", len(folds))
	}
	seen := map[int]int{}
	for _, f := range folds {
		for _, i := range f {
			seen[i]++
		}
	}
	if len(seen) != 10 {
		t.Errorf("covered %d of 10", len(seen))
	}
	for i, c := range seen {
		if c != 1 {
			t.Errorf("index %d in %d folds", i, c)
		}
	}
	// Deterministic.
	again := Folds(10, 3, 1)
	for i := range folds {
		if len(folds[i]) != len(again[i]) {
			t.Error("folds not deterministic")
		}
	}
	// k > n clamps.
	if got := Folds(2, 5, 1); len(got) != 2 {
		t.Errorf("clamped folds = %d", len(got))
	}
}

func TestTrainTest(t *testing.T) {
	folds := Folds(9, 3, 2)
	train, test := TrainTest(folds, 0)
	if len(train)+len(test) != 9 {
		t.Errorf("train %d + test %d != 9", len(train), len(test))
	}
	inTest := map[int]bool{}
	for _, i := range test {
		inTest[i] = true
	}
	for _, i := range train {
		if inTest[i] {
			t.Errorf("index %d in both train and test", i)
		}
	}
}

func TestMean(t *testing.T) {
	if !approx(Mean([]float64{1, 2, 3}), 2) {
		t.Error("Mean wrong")
	}
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
}
