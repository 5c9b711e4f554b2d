package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bioenrich/internal/corpus"
	"bioenrich/internal/ontology"
	"bioenrich/internal/textutil"
)

func writeFixtures(t *testing.T) (corpPath, ontPath, dir string) {
	t.Helper()
	dir = t.TempDir()
	o := ontology.New("t")
	add := func(id ontology.ConceptID, pref string, syns ...string) {
		if _, err := o.AddConcept(id, pref); err != nil {
			t.Fatal(err)
		}
		for _, s := range syns {
			if err := o.AddSynonym(id, s); err != nil {
				t.Fatal(err)
			}
		}
	}
	add("D1", "corneal diseases")
	add("D2", "corneal injury", "corneal damage")
	if err := o.SetParent("D2", "D1"); err != nil {
		t.Fatal(err)
	}
	ontPath = filepath.Join(dir, "o.json")
	if err := o.Save(ontPath); err != nil {
		t.Fatal(err)
	}

	c := corpus.New(textutil.English)
	c.AddAll([]corpus.Document{
		{ID: "1", Text: "The corneal abrasion showed epithelium scarring near corneal injury tissue."},
		{ID: "2", Text: "Severe corneal abrasion with epithelium scarring followed corneal injury."},
		{ID: "3", Text: "Corneal diseases include epithelium scarring of the surface."},
	})
	c.Build()
	corpPath = filepath.Join(dir, "c.json")
	if err := c.Save(corpPath); err != nil {
		t.Fatal(err)
	}
	return corpPath, ontPath, dir
}

func decodeLines(t *testing.T, raw []byte) []resultLine {
	t.Helper()
	var out []resultLine
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		var rl resultLine
		if err := json.Unmarshal([]byte(line), &rl); err != nil {
			t.Fatalf("line %q: %v", line, err)
		}
		out = append(out, rl)
	}
	return out
}

func TestRunSingleText(t *testing.T) {
	corpPath, ontPath, _ := writeFixtures(t)
	var buf bytes.Buffer
	err := run(context.Background(), options{
		corpusPath: corpPath, ontPath: ontPath,
		text: "corneal injury with epithelium scarring after abrasion",
		top:  3,
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	lines := decodeLines(t, buf.Bytes())
	if len(lines) != 1 {
		t.Fatalf("got %d lines", len(lines))
	}
	rl := lines[0]
	if rl.Epoch != 1 || rl.Lang != "en" || len(rl.Concepts) == 0 {
		t.Fatalf("line = %+v", rl)
	}
	if rl.Concepts[0].ID != "D2" {
		t.Fatalf("top concept = %s, want D2 (ranking %+v)", rl.Concepts[0].ID, rl.Concepts)
	}
}

func TestRunBatchJSONL(t *testing.T) {
	corpPath, ontPath, dir := writeFixtures(t)
	in := filepath.Join(dir, "docs.jsonl")
	batch := `{"id":"b1","text":"corneal injury with epithelium scarring"}
{"id":"b2","text":"the of and"}
{"id":"b3","text":"corneal diseases of the surface with epithelium scarring"}
`
	if err := os.WriteFile(in, []byte(batch), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "results.jsonl")
	err := run(context.Background(), options{
		corpusPath: corpPath, ontPath: ontPath,
		inPath: in, outPath: out, top: 2,
	}, os.Stdout)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	lines := decodeLines(t, raw)
	if len(lines) != 3 {
		t.Fatalf("got %d lines: %s", len(lines), raw)
	}
	if lines[0].Doc != "b1" || len(lines[0].Concepts) == 0 {
		t.Fatalf("b1 = %+v", lines[0])
	}
	// The stopword-only document reports its error on its own line and
	// does not abort the batch.
	if lines[1].Doc != "b2" || lines[1].Error == "" {
		t.Fatalf("b2 = %+v", lines[1])
	}
	if lines[1].Concepts == nil {
		t.Fatal("b2 concepts nil, want []")
	}
	if lines[2].Doc != "b3" || len(lines[2].Concepts) == 0 {
		t.Fatalf("b3 = %+v", lines[2])
	}
}

func TestRunFlagValidation(t *testing.T) {
	corpPath, ontPath, _ := writeFixtures(t)
	cases := []options{
		{},                                       // no inputs at all
		{corpusPath: corpPath},                   // missing ontology
		{corpusPath: corpPath, ontPath: ontPath}, // neither -text nor -in
		{corpusPath: corpPath, ontPath: ontPath, text: "x", inPath: "y"}, // both
		{corpusPath: corpPath, ontPath: ontPath, text: "x", top: -1},     // negative
	}
	for i, o := range cases {
		if err := run(context.Background(), o, os.Stdout); err == nil {
			t.Errorf("case %d: run unexpectedly succeeded", i)
		}
	}
}

func TestRunCancelled(t *testing.T) {
	corpPath, ontPath, _ := writeFixtures(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := run(ctx, options{corpusPath: corpPath, ontPath: ontPath, text: "corneal injury"}, os.Stdout)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
