package bioenrich

// Golden outputs: exact values the pipeline must keep producing. The
// benchmark compares the server with the in-process library of the
// same checkout, so it cannot see an output change; these pins can.
// A change that moves any of them must update EXPERIMENTS.md (or the
// checked-in golden files) in the same commit and say why.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bioenrich/internal/classify"
	"bioenrich/internal/cluster"
	"bioenrich/internal/core"
	"bioenrich/internal/corpus"
	"bioenrich/internal/experiments"
	"bioenrich/internal/ontology"
	"bioenrich/internal/polysemy"
	"bioenrich/internal/recommend"
	"bioenrich/internal/senseind"
	"bioenrich/internal/state"
	"bioenrich/internal/synth"
	"bioenrich/internal/termex"
	"bioenrich/internal/textutil"
)

// reportDigest runs the pipeline at topN with one worker and returns
// the SHA-256 of its report encoded as the server's job result
// encodes it.
func reportDigest(t *testing.T, c *corpus.Corpus, o *ontology.Ontology, topN int) string {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.TopCandidates = topN
	cfg.Workers = 1
	rep, err := core.NewEnricher(c, o, cfg).Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Candidates == nil {
		rep.Candidates = []core.Candidate{}
	}
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// benchMesh is BenchmarkEnricherRun's and BenchmarkClassify's input:
// the default mesh with three documents per concept.
func benchMesh() (*synth.Mesh, *corpus.Corpus) {
	mesh := synth.GenerateMesh(synth.DefaultMeshOptions())
	copts := synth.DefaultCorpusOptions()
	copts.DocsPerConcept = 3
	return mesh, synth.GenerateMeshCorpus(mesh, copts)
}

// smallMesh is the benchmark's enrich shape in lang: 3 branches,
// depth 3, 4 documents per concept, ontology at seed 42 and text at 43.
func smallMesh(lang textutil.Lang) (*synth.Mesh, *corpus.Corpus) {
	mopts := synth.DefaultMeshOptions()
	mopts.Seed = 42
	mopts.Branches, mopts.Depth = 3, 3
	mesh := synth.GenerateMesh(mopts)
	copts := synth.DefaultCorpusOptions()
	copts.Seed = 43
	copts.DocsPerConcept = 4
	copts.Lang = lang
	return mesh, synth.GenerateMeshCorpus(mesh, copts)
}

// smallCorpus is the benchmark's enrich input: smallMesh in English,
// saved and loaded back as the server loads it.
func smallCorpus(t testing.TB) (*corpus.Corpus, *ontology.Ontology) {
	t.Helper()
	mesh, c := smallMesh(textutil.English)
	dir := t.TempDir()
	cp, op := filepath.Join(dir, "corpus.json"), filepath.Join(dir, "ontology.json")
	if err := c.Save(cp); err != nil {
		t.Fatal(err)
	}
	if err := mesh.Ontology.Save(op); err != nil {
		t.Fatal(err)
	}
	lc, err := corpus.Load(cp)
	if err != nil {
		t.Fatal(err)
	}
	lo, err := ontology.Load(op)
	if err != nil {
		t.Fatal(err)
	}
	return lc, lo
}

func TestGoldenReports(t *testing.T) {
	mesh, c := benchMesh()
	sc, so := smallCorpus(t)
	for _, tc := range []struct {
		name   string
		c      *corpus.Corpus
		o      *ontology.Ontology
		topN   int
		digest string
	}{
		{"small/top3", sc, so, 3, "c0b6dbfdf3173a2a47ae04dc6a7507e2b049629f41ec7913ca065056fa6aa947"},
		{"mesh/top3", c, mesh.Ontology, 3, "c5c3495d3eee036b76811c1cd0eb88b43b6a039696865b4a4d45a42159030df3"},
		{"mesh/top12", c, mesh.Ontology, 12, "8e1d53431109ce4a16e756a8a1192fcf7dc73c4b3e70ac0bd35510db7b9b4753"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			// A clone keeps no step I table, so the first Enricher scans
			// the corpus and the second reads the table it kept.
			c := tc.c.Clone()
			for _, pass := range []string{"cold", "warm"} {
				if got := reportDigest(t, c, tc.o, tc.topN); got != tc.digest {
					t.Errorf("%s: report sha256 = %s, want %s", pass, got, tc.digest)
				}
			}
		})
	}
}

// TestGoldenExtraction pins step I's whole ranking on the benchmark's
// small shape: the SHA-256 of Rank(m, 0) encoded as /v1/extract
// encodes it (term, score, Freq, Docs, Words), for every measure in
// English and for LIDF-value, the pipeline's measure, in French and
// Spanish. The LIDF pattern model is learnt from the ontology, as
// core.run learns it. Each digest is computed twice on one clone of
// the corpus: cold, by the Extractor whose scan builds the clone's
// candidate table, and warm, by a second Extractor that reads it.
func TestGoldenExtraction(t *testing.T) {
	for _, tc := range []struct {
		lang    textutil.Lang
		digests map[termex.Measure]string
	}{
		{textutil.English, map[termex.Measure]string{
			termex.CValue:   "c56102aa3bc3ee2633b135985cb69d8de837f42dee3c4826d23e5ad0306f5cfe",
			termex.TFIDF:    "4ba819e697d08c183619c8218284b12cabbc3772256db796233bb45e1d3d3599",
			termex.Okapi:    "33fe16846880c45e6fe1542118335ed63832acf41599a19b24f87af6df4c4467",
			termex.FTFIDFC:  "011ae4efc502daba902bf396286de2b77dc6229d83398d404aa1c9fa6122e7fc",
			termex.LIDF:     "4af4c09a035474801f3536c835599cc358e1ef92c036742ea89269637b218bb7",
			termex.TeRGraph: "3cd30d1d1ad1382b6040bf05db0c689e271c67f6c17b1845b459d735671dc400",
		}},
		{textutil.French, map[termex.Measure]string{
			termex.LIDF: "c4560f5cd8bd993b0b1c72ac60f9d11910e433d3586d5e2fffe5cde88e289f22",
		}},
		{textutil.Spanish, map[termex.Measure]string{
			termex.LIDF: "5e4d3f9d11959929de482662159a52a26e11b03c2e58fd5c2e5a2f334d3d620e",
		}},
	} {
		t.Run(tc.lang.String(), func(t *testing.T) {
			t.Parallel()
			mesh, c := smallMesh(tc.lang)
			for _, m := range termex.Measures {
				want, ok := tc.digests[m]
				if !ok {
					continue
				}
				cm := c.Clone()
				for _, pass := range []string{"cold", "warm"} {
					ext := termex.NewExtractor(cm)
					ext.LearnPatterns(mesh.Ontology.Terms())
					ranked, err := ext.Rank(context.Background(), m, 0)
					if err != nil {
						t.Fatal(err)
					}
					b, err := json.Marshal(ranked)
					if err != nil {
						t.Fatal(err)
					}
					sum := sha256.Sum256(b)
					if got := hex.EncodeToString(sum[:]); got != want {
						t.Errorf("%s %s: %d terms, sha256 = %s, want %s", m, pass, len(ranked), got, want)
					}
				}
			}
		})
	}
}

// goldenTexts are fixed inputs for the classify and recommend pins:
// documents spread over the mesh corpus, one document of the other
// mesh, the mesh's first preferred terms, and hand-written text mixing
// stopwords, case, accents and numbers.
func goldenTexts(mesh *synth.Mesh, c, other *corpus.Corpus) []string {
	var texts []string
	docs := c.Documents()
	for i := 0; i < 6; i++ {
		texts = append(texts, docs[i*len(docs)/6].Text)
	}
	var terms string
	for _, id := range mesh.Ontology.ConceptIDs()[:12] {
		terms += mesh.Ontology.Concept(id).Preferred + ", "
	}
	return append(texts,
		other.Documents()[0].Text,
		terms,
		"The CORNEAL injury of the eye (n = 12) was treated; l'hôpital reported 3.5% Straße résultats.",
	)
}

// checkGolden compares got with the checked-in file line by line.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w []byte
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if !bytes.Equal(g, w) {
			t.Fatalf("%s line %d:\n got %s\nwant %s", path, i+1, g, w)
		}
	}
}

func TestGoldenClassifyRecommend(t *testing.T) {
	mesh, c := benchMesh()
	snap := state.NewStore(c, mesh.Ontology).Load()
	mopts := synth.DefaultMeshOptions()
	mopts.Seed = 2
	copts := synth.DefaultCorpusOptions()
	copts.Seed = 2
	copts.DocsPerConcept = 2
	other := synth.GenerateMesh(mopts)
	oc := synth.GenerateMeshCorpus(other, copts)
	texts := goldenTexts(mesh, c, oc)
	ctx := context.Background()

	var cls bytes.Buffer
	cl := classify.New(classify.Options{})
	for i, text := range texts {
		fresh := state.NewStore(c, mesh.Ontology).Load()
		cold, err := cl.Classify(ctx, "golden", fresh, text, 10)
		if err != nil {
			t.Fatal(err)
		}
		warm, err := cl.Classify(ctx, "golden", snap, text, 10)
		if err != nil {
			t.Fatal(err)
		}
		cb, _ := json.Marshal(cold)
		wb, _ := json.Marshal(warm)
		if !bytes.Equal(cb, wb) {
			t.Errorf("text %d: cold index %s, warm index %s", i, cb, wb)
		}
		cls.Write(cb)
		cls.WriteByte('\n')
	}
	checkGolden(t, "classify.jsonl", cls.Bytes())

	inputs := []recommend.Input{
		{Name: "mesh", Snap: snap},
		{Name: "mesh-2", Snap: state.NewStore(oc, other.Ontology).Load()},
	}
	var rec bytes.Buffer
	for _, text := range texts {
		scores, err := recommend.Rank(ctx, inputs, text, recommend.Options{})
		if err != nil {
			t.Fatal(err)
		}
		b, _ := json.Marshal(scores)
		rec.Write(b)
		rec.WriteByte('\n')
	}
	checkGolden(t, "recommend.jsonl", rec.Bytes())
}

// TestGoldenTable4 pins Table 4 at BenchmarkTable4LinkagePrecision's
// reduced size (20 held-out terms), exactly.
func TestGoldenTable4(t *testing.T) {
	opts := experiments.DefaultTable4Options()
	opts.Terms = 20
	res, err := experiments.Table4(opts)
	if err != nil {
		t.Fatal(err)
	}
	got := fmt.Sprintf("P@1=%v P@2=%v P@5=%v P@10=%v MRR=%v",
		res.PrecisionAt[1], res.PrecisionAt[2], res.PrecisionAt[5], res.PrecisionAt[10], res.MRR)
	if want := "P@1=0.2 P@2=0.3 P@5=0.45 P@10=0.6 MRR=0.3113095238095238"; got != want {
		t.Errorf("Table 4 = %s, want %s", got, want)
	}
}

// TestGoldenExperiments pins one reduced-scale run of each of E1, E2,
// E3 and E5, and Table 2, exactly. E1's clustering and E2's polysemy
// features are the callers of sparse.Cosine outside classify and
// linkage, so these catch any drift in its floats. E5 clusters at the
// gold k with all five algorithms on both representations, and Table 2
// sweeps k = 2..5 with direct, so together they cover every path of
// step III's clustering.
func TestGoldenExperiments(t *testing.T) {
	t.Run("E1", func(t *testing.T) {
		t.Parallel()
		opts := experiments.DefaultE1Options()
		opts.Entities, opts.ContextsPerSense = 10, 12
		opts.Indexes = []cluster.Index{cluster.CK, cluster.FK}
		opts.Representations = []senseind.Representation{senseind.BagOfWords}
		cells, err := experiments.E1(opts)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, c := range cells {
			got = append(got, fmt.Sprintf("%s/%s %v", c.Algorithm, c.Index, c.Accuracy))
		}
		want := "agglo/ck 1, agglo/fk 1, rb/fk 1, rbr/fk 1, direct/fk 0.9, " +
			"rb/ck 0.8, rbr/ck 0.8, direct/ck 0.7, graph/ck 0.7, graph/fk 0.7"
		if g := strings.Join(got, ", "); g != want {
			t.Errorf("E1 cells = %s\nwant        %s", g, want)
		}
	})
	// TestE2SmallPanel's size; only the best row is pinned.
	t.Run("E2", func(t *testing.T) {
		t.Parallel()
		opts := experiments.DefaultE2Options()
		opts.Polysemic, opts.Monosemic = 8, 8
		opts.ContextsPerTerm = 16
		opts.Folds = 4
		opts.FeatureSets = []polysemy.FeatureSet{polysemy.AllFeatures}
		rows, err := experiments.E2(opts)
		if err != nil {
			t.Fatal(err)
		}
		best := rows[0]
		cf := best.Confusion
		got := fmt.Sprintf("%s %s TP=%d FP=%d TN=%d FN=%d F1=%v",
			best.Classifier, best.Features, cf.TP, cf.FP, cf.TN, cf.FN, cf.F1())
		if want := "gaussian-nb all-23 TP=7 FP=1 TN=7 FN=1 F1=0.875"; got != want {
			t.Errorf("E2 best row = %s, want %s", got, want)
		}
	})
	// The seed cmd/tables -table e3 uses: these are EXPERIMENTS.md's
	// "Measure ablation" values.
	t.Run("E3", func(t *testing.T) {
		t.Parallel()
		rows, err := experiments.E3(context.Background(), 6)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, r := range rows {
			got = append(got, fmt.Sprintf("%s %v/%v/%v n=%d",
				r.Measure, r.PrecisionAt[50], r.PrecisionAt[100], r.PrecisionAt[200], r.Candidates))
		}
		want := "tf-idf 0.34/0.39/0.435 n=90542, lidf-value 0.32/0.34/0.41 n=90542, " +
			"tergraph 0.32/0.41/0.505 n=90542, c-value 0.22/0.28/0.39 n=90542, " +
			"f-tfidf-c 0.22/0.3/0.405 n=90542, okapi 0.06/0.16/0.27 n=90542"
		if g := strings.Join(got, ", "); g != want {
			t.Errorf("E3 rows = %s\nwant       %s", g, want)
		}
	})
	t.Run("E5", func(t *testing.T) {
		t.Parallel()
		cells, err := experiments.E5(8, 10, 3)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, c := range cells {
			got = append(got, fmt.Sprintf("%s/%s %v/%v/%v",
				c.Algorithm, c.Representation, c.MeanARI, c.MeanNMI, c.MeanPurity))
		}
		want := "agglo/bow 0.6142920481860625/0.6033900946036728/0.8937500000000002\n" +
			"graph/bow 0.49972555189019896/0.5500379953865465/0.825\n" +
			"direct/graph 0.4627138297115033/0.5177340214995757/0.8062499999999999\n" +
			"rb/graph 0.4627138297115033/0.5177340214995757/0.8062499999999999\n" +
			"rbr/graph 0.4627138297115033/0.5177340214995757/0.8062499999999999\n" +
			"agglo/graph 0.4569936949399108/0.5113702886702903/0.8125\n" +
			"direct/bow 0.24697023126198098/0.25525700710208094/0.7000000000000001\n" +
			"rb/bow 0.24697023126198098/0.25525700710208094/0.7000000000000001\n" +
			"rbr/bow 0.24697023126198098/0.25525700710208094/0.7000000000000001\n" +
			"graph/graph 0.2238562091503268/0.3377704459304683/0.725"
		if g := strings.Join(got, "\n"); g != want {
			t.Errorf("E5 cells =\n%s\nwant\n%s", g, want)
		}
	})
	// The seed cmd/tables -table 2 uses.
	t.Run("Table2", func(t *testing.T) {
		t.Parallel()
		rows, err := experiments.Table2(3, 1)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, r := range rows {
			got = append(got, fmt.Sprintf("%s %v/%v/%v/%v selected=%d",
				r.Index, r.Values[2], r.Values[3], r.Values[4], r.Values[5], r.Selected))
		}
		want := "ak 0.29693448275430656/0.4000433101083402/0.39510853759124687/0.4127881278544783 selected=5\n" +
			"bk 0.0012090671925805907/0.001220760054434559/0.033467863023883646/0.0581455873187251 selected=2\n" +
			"ck 15.795374655103359/15.952902002156224/11.686177864092105/8.96999523087823 selected=3\n" +
			"ek 218.73499923510266/327.7001968201157/29.957391043096692/10.602083245936155 selected=3\n" +
			"fk 0.986395000602378/0.838452083513634/0.6562610757771112/0.5905662979724048 selected=2"
		if g := strings.Join(got, "\n"); g != want {
			t.Errorf("Table 2 rows =\n%s\nwant\n%s", g, want)
		}
	})
}
