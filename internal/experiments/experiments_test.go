package experiments

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"bioenrich/internal/cluster"
	"bioenrich/internal/linkage"
	"bioenrich/internal/polysemy"
	"bioenrich/internal/senseind"
)

func TestTable1ExactMarginals(t *testing.T) {
	rows := Table1(2000, 1)
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		scaled := r.Paper.Scale(2000)
		if r.Generated[2] != scaled.K2 || r.Generated[3] != scaled.K3 {
			t.Errorf("%s/%s: generated %v, want k2=%d k3=%d",
				r.Vocabulary, r.Lang, r.Generated, scaled.K2, scaled.K3)
		}
	}
	var buf bytes.Buffer
	WriteTable1(&buf, rows, 2000)
	if !strings.Contains(buf.String(), "UMLS") {
		t.Error("table 1 output missing UMLS")
	}
}

func TestTable2SelectsWithinRange(t *testing.T) {
	rows, err := Table2(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Selected < cluster.KMin || r.Selected > cluster.KMax {
			t.Errorf("index %s selected %d", r.Index, r.Selected)
		}
		for k := cluster.KMin; k <= cluster.KMax; k++ {
			if _, ok := r.Values[k]; !ok {
				t.Errorf("index %s missing k=%d", r.Index, k)
			}
		}
	}
	// ck recovers the true k on this clean single entity.
	for _, r := range rows {
		if r.Index == cluster.CK && r.Selected != 3 {
			t.Errorf("ck selected %d, want 3", r.Selected)
		}
	}
	var buf bytes.Buffer
	WriteTable2(&buf, rows)
	if !strings.Contains(buf.String(), "selected") {
		t.Error("table 2 output malformed")
	}
}

func TestE1SmallGrid(t *testing.T) {
	opts := DefaultE1Options()
	opts.Entities = 10
	opts.ContextsPerSense = 12
	opts.Algorithms = []cluster.Algorithm{cluster.Direct}
	opts.Indexes = []cluster.Index{cluster.CK, cluster.FK}
	opts.Representations = []senseind.Representation{senseind.BagOfWords}
	cells, err := E1(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("cells = %d", len(cells))
	}
	for _, c := range cells {
		if c.Accuracy < 0 || c.Accuracy > 1 {
			t.Errorf("accuracy %v", c.Accuracy)
		}
	}
	var buf bytes.Buffer
	WriteE1(&buf, cells)
	if !strings.Contains(buf.String(), "accuracy") {
		t.Error("E1 output malformed")
	}
}

func TestE2SmallPanel(t *testing.T) {
	opts := DefaultE2Options()
	opts.Polysemic, opts.Monosemic = 8, 8
	opts.ContextsPerTerm = 16
	opts.Folds = 4
	opts.FeatureSets = []polysemy.FeatureSet{polysemy.AllFeatures}
	rows, err := E2(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 { // full classifier panel
		t.Fatalf("rows = %d", len(rows))
	}
	// The best classifier clears a solid F1 on the synthetic signal.
	if rows[0].Confusion.F1() < 0.8 {
		t.Errorf("best F1 = %.3f", rows[0].Confusion.F1())
	}
	var buf bytes.Buffer
	WriteE2(&buf, rows)
	if !strings.Contains(buf.String(), "classifier") {
		t.Error("E2 output malformed")
	}
}

func TestTable3(t *testing.T) {
	res, err := Table3(1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Term == "" || len(res.Proposals) == 0 {
		t.Fatal("empty table 3")
	}
	if len(res.Proposals) > 10 {
		t.Errorf("more than 10 proposals: %d", len(res.Proposals))
	}
	hits := 0
	for _, ok := range res.Correct {
		if ok {
			hits++
		}
	}
	if hits == 0 {
		t.Error("no correct proposition in top 10 for the showcase term")
	}
	var buf bytes.Buffer
	WriteTable3(&buf, res)
	if !strings.Contains(buf.String(), res.Term) {
		t.Error("table 3 output malformed")
	}
}

func TestTable4SmallRun(t *testing.T) {
	opts := DefaultTable4Options()
	opts.Terms = 10
	res, err := Table4(opts)
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for _, k := range linkage.Cutoffs {
		p := res.PrecisionAt[k]
		if p < prev {
			t.Errorf("P@%d = %v not monotone", k, p)
		}
		prev = p
	}
	if res.PrecisionAt[10] == 0 {
		t.Error("P@10 = 0")
	}
	var buf bytes.Buffer
	WriteTable4(&buf, res)
	if !strings.Contains(buf.String(), "Top 10") {
		t.Error("table 4 output malformed")
	}
}

func TestE4AllLanguages(t *testing.T) {
	rows, err := E4(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Candidates == 0 {
			t.Errorf("%s: no candidates", r.Lang)
		}
		if r.PrecisionAt[200] == 0 {
			t.Errorf("%s: P@200 = 0", r.Lang)
		}
	}
	var buf bytes.Buffer
	WriteE4(&buf, rows)
	if !strings.Contains(buf.String(), "fr") {
		t.Error("E4 output malformed")
	}
}

func TestE5Quality(t *testing.T) {
	cells, err := E5(8, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 10 { // 5 algorithms × 2 representations
		t.Fatalf("cells = %d", len(cells))
	}
	for _, c := range cells {
		if c.MeanPurity < 0 || c.MeanPurity > 1 {
			t.Errorf("%s/%s purity = %v", c.Algorithm, c.Representation, c.MeanPurity)
		}
		if c.MeanNMI < 0 || c.MeanNMI > 1 {
			t.Errorf("%s/%s NMI = %v", c.Algorithm, c.Representation, c.MeanNMI)
		}
	}
	// Sorted by ARI descending.
	for i := 1; i < len(cells); i++ {
		if cells[i].MeanARI > cells[i-1].MeanARI {
			t.Error("not sorted")
		}
	}
	var buf bytes.Buffer
	WriteE5(&buf, cells)
	if !strings.Contains(buf.String(), "ARI") {
		t.Error("E5 output malformed")
	}
}
