package bioenrich

// One benchmark per table/figure of the paper's evaluation section.
// Each bench runs the corresponding experiment (at a reduced size where
// the full protocol takes minutes; cmd/tables runs full scale) and
// reports the experiment's quality numbers as custom benchmark metrics,
// so `go test -bench . -benchmem` both times the pipeline and
// regenerates the paper's values.

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"bioenrich/internal/batch"
	"bioenrich/internal/classify"
	"bioenrich/internal/cluster"
	"bioenrich/internal/core"
	"bioenrich/internal/corpus"
	"bioenrich/internal/experiments"
	"bioenrich/internal/linkage"
	"bioenrich/internal/loadtest"
	"bioenrich/internal/obs"
	"bioenrich/internal/ontology"
	"bioenrich/internal/polysemy"
	"bioenrich/internal/recommend"
	"bioenrich/internal/relext"
	"bioenrich/internal/senseind"
	"bioenrich/internal/state"
	"bioenrich/internal/synth"
	"bioenrich/internal/textutil"
)

// BenchmarkTable1PolysemyStats regenerates Table 1: the polysemic-term
// histogram of the six metathesauri (UMLS/MeSH × EN/FR/ES), generated
// at 1/2000 of the paper's sizes with exactly the paper's marginal
// shape.
func BenchmarkTable1PolysemyStats(b *testing.B) {
	var k2 int
	for i := 0; i < b.N; i++ {
		rows := experiments.Table1(2000, 1)
		k2 = rows[0].Generated[2]
	}
	b.ReportMetric(float64(k2), "umls-en-k2-terms")
}

// BenchmarkTable2InternalIndexes regenerates Table 2's behaviour: the
// five internal indexes swept over k = 2..5 on a known-k entity.
func BenchmarkTable2InternalIndexes(b *testing.B) {
	var ckSelected int
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table2(3, 1)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Index == cluster.CK {
				ckSelected = r.Selected
			}
		}
	}
	b.ReportMetric(float64(ckSelected), "ck-selected-k")
}

// BenchmarkE1SenseNumberPrediction regenerates the paper's §3(i)
// headline (sense-number prediction accuracy; paper max 93.1% via
// max(fk)) on a reduced grid: all five indexes, direct algorithm,
// bag-of-words, 60 entities. cmd/tables -table e1 runs the full
// 5×5×2 grid over 203 entities.
func BenchmarkE1SenseNumberPrediction(b *testing.B) {
	opts := experiments.DefaultE1Options()
	opts.Entities = 60
	opts.ContextsPerSense = 20
	opts.Algorithms = []cluster.Algorithm{cluster.Direct}
	opts.Representations = []senseind.Representation{senseind.BagOfWords}
	var best, fk float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cells, err := experiments.E1(opts)
		if err != nil {
			b.Fatal(err)
		}
		best = cells[0].Accuracy
		for _, c := range cells {
			if c.Index == cluster.FK {
				fk = c.Accuracy
			}
		}
	}
	b.ReportMetric(best, "best-accuracy")
	b.ReportMetric(fk, "fk-accuracy")
}

// BenchmarkPolysemyDetection regenerates the paper's §2(II) headline
// (23-feature polysemy detection, F-measure ≈ 98%) with logistic
// regression and a reduced term set. cmd/tables -table e2 runs the
// full classifier panel.
func BenchmarkPolysemyDetection(b *testing.B) {
	gen := synth.DefaultPolysemyOptions()
	gen.NumPolysemic, gen.NumMonosemic = 20, 20
	gen.ContextsPerTerm = 25
	set := synth.GeneratePolysemySet(gen)
	b.ResetTimer()
	var f1 float64
	for i := 0; i < b.N; i++ {
		conf, err := polysemy.CrossValidate(set.Corpus, set.Polysemic, set.Monosemic,
			experimentsClassifier, polysemy.AllFeatures, 5, 1)
		if err != nil {
			b.Fatal(err)
		}
		f1 = conf.F1()
	}
	b.ReportMetric(f1, "F1")
}

// BenchmarkTable3Propositions regenerates Table 3: the top-10 position
// proposals for one held-out term on the synthetic mesh.
func BenchmarkTable3Propositions(b *testing.B) {
	var correct int
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table3(1)
		if err != nil {
			b.Fatal(err)
		}
		correct = 0
		for _, ok := range res.Correct {
			if ok {
				correct++
			}
		}
	}
	b.ReportMetric(float64(correct), "correct-of-10")
}

// BenchmarkTable4LinkagePrecision regenerates Table 4 (P@1/2/5/10 over
// held-out terms; paper: .333/.400/.500/.583) with 20 terms per
// iteration. cmd/tables -table 4 runs the paper's 60.
func BenchmarkTable4LinkagePrecision(b *testing.B) {
	opts := experiments.DefaultTable4Options()
	opts.Terms = 20
	var res *linkage.Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.Table4(opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.PrecisionAt[1], "P@1")
	b.ReportMetric(res.PrecisionAt[2], "P@2")
	b.ReportMetric(res.PrecisionAt[5], "P@5")
	b.ReportMetric(res.PrecisionAt[10], "P@10")
}

// BenchmarkEnricherRun times the full steps I–IV pipeline over the
// synthetic mesh corpus at different worker-pool sizes. Steps II–IV
// are per-candidate independent and run on core.Config.Workers
// goroutines; the workers=1 / workers=N pair puts the parallel
// speedup into the bench trajectory (on multi-core hardware expect
// ≥1.5× at 4 workers; a single-core runner shows parity, which is
// itself the no-regression signal for the pool's overhead).
// "small/top3" is the job perfbench's enrich workload times, in
// process: its small corpus loaded as the server loads it, top 3, one
// worker, and step I's table kept by a run before the timer starts.
func BenchmarkEnricherRun(b *testing.B) {
	b.Run("small/top3", func(b *testing.B) {
		c, o := smallCorpus(b)
		cfg := core.DefaultConfig()
		cfg.TopCandidates = 3
		cfg.Workers = 1
		if _, err := core.NewEnricher(c, o, cfg).Run(); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := core.NewEnricher(c, o, cfg).Run(); err != nil {
				b.Fatal(err)
			}
		}
	})
	mopts := synth.DefaultMeshOptions()
	copts := synth.DefaultCorpusOptions()
	copts.DocsPerConcept = 3
	mesh := synth.GenerateMesh(mopts)
	c := synth.GenerateMeshCorpus(mesh, copts)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			cfg := core.DefaultConfig()
			cfg.TopCandidates = 12
			cfg.Workers = workers
			var candidates int
			for i := 0; i < b.N; i++ {
				report, err := core.NewEnricher(c, mesh.Ontology, cfg).Run()
				if err != nil {
					b.Fatal(err)
				}
				candidates = len(report.Candidates)
			}
			b.ReportMetric(float64(candidates), "candidates")
		})
	}
}

// BenchmarkEnricherRunObsOverhead runs the identical pipeline with
// observability disabled (nil registry — the default no-op path) and
// enabled (live registry: four spans, pool metrics, cache counters),
// documenting the instrumentation overhead. The two sub-benches
// should stay within ~2% of each other: the hot path resolves its
// metric handles once per run and pays per-candidate only a handful
// of time.Now calls and atomic adds.
func BenchmarkEnricherRunObsOverhead(b *testing.B) {
	mopts := synth.DefaultMeshOptions()
	copts := synth.DefaultCorpusOptions()
	copts.DocsPerConcept = 3
	mesh := synth.GenerateMesh(mopts)
	c := synth.GenerateMeshCorpus(mesh, copts)
	for _, mode := range []string{"noop", "enabled"} {
		b.Run(mode, func(b *testing.B) {
			cfg := core.DefaultConfig()
			cfg.TopCandidates = 12
			cfg.Workers = 2
			if mode == "enabled" {
				cfg.Obs = obs.New()
			}
			for i := 0; i < b.N; i++ {
				if _, err := core.NewEnricher(c, mesh.Ontology, cfg).Run(); err != nil {
					b.Fatal(err)
				}
			}
			if cfg.Obs != nil {
				// Surface the span volume so the trajectory shows the
				// instrumentation actually ran.
				var spans int64
				for _, s := range cfg.Obs.SpanSummaries() {
					spans += s.Count
				}
				b.ReportMetric(float64(spans)/float64(b.N), "spans/op")
			}
		})
	}
}

// ---- component micro-benchmarks (the substrate the tables run on) ----

// BenchmarkTermExtraction times step I over the synthetic corpus as
// core.run does it: learn the LIDF pattern model from the ontology,
// then scan and rank. "cold" ranks a fresh Clone each iteration (a
// clone keeps no candidate table), so it pays the scan; "warm" ranks
// the one corpus whose table an earlier ranking kept, as every later
// job on a snapshot does.
func BenchmarkTermExtraction(b *testing.B) {
	m := synth.GenerateMesh(synth.DefaultMeshOptions())
	copts := synth.DefaultCorpusOptions()
	copts.DocsPerConcept = 3
	c := synth.GenerateMeshCorpus(m, copts)
	terms := m.Ontology.Terms()
	ctx := context.Background()
	rank := func(b *testing.B, c *corpus.Corpus) {
		ext := newExtractor(c)
		ext.LearnPatterns(terms)
		if _, err := ext.Rank(ctx, lidfMeasure, 50); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rank(b, c.Clone())
		}
	})
	b.Run("warm", func(b *testing.B) {
		rank(b, c)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rank(b, c)
		}
	})
}

// BenchmarkClusteringAlgorithms times each of the five algorithms on a
// typical entity's context set (k = 3).
func BenchmarkClusteringAlgorithms(b *testing.B) {
	wsd := synth.DefaultWSDOptions()
	wsd.NumEntities = 1
	ds := synth.GenerateMSHWSD(wsd)
	vecs := senseind.Vectorize(ds.Entities[0].Contexts, senseind.BagOfWords)
	for _, alg := range cluster.Algorithms {
		b.Run(string(alg), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := cluster.Run(alg, vecs, 3, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFeatureExtraction times the 23-feature computation of step II.
func BenchmarkFeatureExtraction(b *testing.B) {
	gen := synth.DefaultPolysemyOptions()
	gen.NumPolysemic, gen.NumMonosemic = 2, 2
	gen.ContextsPerTerm = 30
	set := synth.GeneratePolysemySet(gen)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		polysemy.Extract(set.Corpus, set.Polysemic[0])
	}
}

// BenchmarkCorpusIndexing times the inverted-index build.
func BenchmarkCorpusIndexing(b *testing.B) {
	m := synth.GenerateMesh(synth.DefaultMeshOptions())
	c := synth.GenerateMeshCorpus(m, synth.DefaultCorpusOptions())
	docs := c.Documents()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fresh := newCorpus(textutil.English)
		fresh.AddAll(docs)
		fresh.Build()
	}
}

// BenchmarkClassify times document→concept assignment over the
// synthetic mesh. The "cached" sub-bench classifies on one snapshot,
// whose concept-profile index is built once; "uncached" pays the full
// O(corpus) profile build every iteration (a fresh snapshot of the
// same data per op — the cost every request would pay without the
// kept index). cached must beat uncached by a wide margin: that gap
// is the reason the serving path is O(document), not O(corpus). "loadtest" is cached on
// the benchmark's classify shape: 30-word loadtest texts over the
// mesh's vocabulary, a different one each call. All report
// allocations: uncached's bytes/op is what every profile rebuild hands
// the collector, and on a write-heavy server the collector's assists
// land on the ingest path.
func BenchmarkClassify(b *testing.B) {
	mopts := synth.DefaultMeshOptions()
	mesh := synth.GenerateMesh(mopts)
	copts := synth.DefaultCorpusOptions()
	copts.DocsPerConcept = 3
	c := synth.GenerateMeshCorpus(mesh, copts)
	snap := state.NewStore(c, mesh.Ontology).Load()
	text := c.Documents()[0].Text
	ctx := context.Background()

	b.Run("cached", func(b *testing.B) {
		b.ReportAllocs()
		cl := classify.New(classify.Options{})
		if _, err := cl.Classify(ctx, "bench", snap, text, 5); err != nil {
			b.Fatal(err) // warm the index outside the timed loop
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := cl.Classify(ctx, "bench", snap, text, 5); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("uncached", func(b *testing.B) {
		b.ReportAllocs()
		cl := classify.New(classify.Options{})
		for i := 0; i < b.N; i++ {
			fresh := state.NewStore(c, mesh.Ontology).Load()
			if _, err := cl.Classify(ctx, "bench", fresh, text, 5); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("loadtest", func(b *testing.B) {
		b.ReportAllocs()
		gen := loadtest.NewGen(mopts.Seed, 400, 0)
		texts := make([]string, 64)
		for i := range texts {
			texts[i] = gen.Text(30)
		}
		cl := classify.New(classify.Options{})
		if _, err := cl.Classify(ctx, "bench", snap, texts[0], 5); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := cl.Classify(ctx, "bench", snap, texts[i%len(texts)], 5); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRecommend times corpus→ontology ranking across three hosted
// mesh ontologies of different seeds (disjoint vocabularies).
func BenchmarkRecommend(b *testing.B) {
	var inputs []recommend.Input
	var text string
	for seed := int64(1); seed <= 3; seed++ {
		mopts := synth.DefaultMeshOptions()
		mopts.Seed = seed
		copts := synth.DefaultCorpusOptions()
		copts.Seed = seed
		copts.DocsPerConcept = 2
		mesh := synth.GenerateMesh(mopts)
		c := synth.GenerateMeshCorpus(mesh, copts)
		inputs = append(inputs, recommend.Input{
			Name: fmt.Sprintf("mesh-%d", seed),
			Snap: state.NewStore(c, mesh.Ontology).Load(),
		})
		if seed == 1 {
			// Input corpus = mesh-1's own terminology, so mesh-1 must rank
			// first (its vocabulary is disjoint from the other seeds').
			for _, id := range mesh.Ontology.ConceptIDs()[:20] {
				text += mesh.Ontology.Concept(id).Preferred + ". "
			}
		}
	}
	ctx := context.Background()
	b.ResetTimer()
	var top string
	for i := 0; i < b.N; i++ {
		scores, err := recommend.Rank(ctx, inputs, text, recommend.Options{})
		if err != nil {
			b.Fatal(err)
		}
		top = scores[0].Ontology
	}
	if top != "mesh-1" {
		b.Fatalf("top ontology = %s, want mesh-1 (the text's source)", top)
	}
}

// ---- ablation benchmarks (DESIGN.md's ablation index) ----

// BenchmarkE1IndexAblation sweeps all six indexes — the paper's five
// plus the classic silhouette baseline — on a reduced entity set.
func BenchmarkE1IndexAblation(b *testing.B) {
	opts := experiments.DefaultE1Options()
	opts.Entities = 40
	opts.ContextsPerSense = 15
	opts.Algorithms = []cluster.Algorithm{cluster.Direct}
	opts.Indexes = append(append([]cluster.Index{}, cluster.Indexes...), cluster.Silhouette)
	opts.Representations = []senseind.Representation{senseind.BagOfWords}
	var silAcc, fkAcc float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cells, err := experiments.E1(opts)
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range cells {
			switch c.Index {
			case cluster.Silhouette:
				silAcc = c.Accuracy
			case cluster.FK:
				fkAcc = c.Accuracy
			}
		}
	}
	b.ReportMetric(silAcc, "silhouette-accuracy")
	b.ReportMetric(fkAcc, "fk-accuracy")
}

// BenchmarkTable4NoExpansion runs the Table 4 protocol with the
// fathers/sons expansion disabled (neighbors-only linkage).
func BenchmarkTable4NoExpansion(b *testing.B) {
	opts := experiments.DefaultTable4Options()
	opts.Terms = 20
	opts.ExpandFathers, opts.ExpandSons = false, false
	var res *linkage.Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.Table4(opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.PrecisionAt[1], "P@1")
	b.ReportMetric(res.PrecisionAt[10], "P@10")
}

// BenchmarkE3MeasureAblation scores the five step I ranking measures
// against the ontology terminology.
func BenchmarkE3MeasureAblation(b *testing.B) {
	var best float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.E3(context.Background(), 1)
		if err != nil {
			b.Fatal(err)
		}
		best = rows[0].PrecisionAt[50]
	}
	b.ReportMetric(best, "best-P@50")
}

// BenchmarkRelationExtraction evaluates the future-work relation-type
// extractor against its synthetic gold.
func BenchmarkRelationExtraction(b *testing.B) {
	var f1 float64
	for i := 0; i < b.N; i++ {
		res, err := relext.Evaluate(context.Background(), relext.DefaultSynthOptions())
		if err != nil {
			b.Fatal(err)
		}
		f1 = res.Overall.F1()
	}
	b.ReportMetric(f1, "F1")
}

// BenchmarkIngestThroughput is the group-commit speedup pair: 64
// concurrent single-document writers against a 10k-document corpus,
// through the old write path (each request pays its own full corpus
// clone + rebuild + epoch) and through the internal/batch group
// committer (concurrent writers coalesce into one clone + incremental
// AppendBuild + one epoch per group). On multi-core hardware batched
// must beat unbatched by well over 5x ops/sec — the batcher turns the
// per-writer cost from O(corpus) into O(group)/groupsize amortized.
// docs-per-epoch reports the achieved coalescing factor.
func BenchmarkIngestThroughput(b *testing.B) {
	const baseDocs = 10_000
	const writers = 64
	words := []string{"corneal", "abrasion", "retinal", "lesion", "membrane",
		"graft", "epithelium", "scarring", "detachment", "glaucoma", "intraocular", "pressure"}
	base := newCorpus(textutil.English)
	seed := make([]corpus.Document, baseDocs)
	for i := range seed {
		seed[i] = corpus.Document{
			ID: fmt.Sprintf("seed-%d", i),
			Text: fmt.Sprintf("%s %s with %s %s after %s %s",
				words[i%len(words)], words[(i+3)%len(words)], words[(i+5)%len(words)],
				words[(i+7)%len(words)], words[(i+9)%len(words)], words[(i+11)%len(words)]),
		}
	}
	base.AddAll(seed)
	base.Build()
	o := ontology.New("bench")
	if _, err := o.AddConcept("C1", "corneal abrasion"); err != nil {
		b.Fatal(err)
	}

	parallelism := (writers + runtime.GOMAXPROCS(0) - 1) / runtime.GOMAXPROCS(0)
	var seq atomic.Int64
	nextDoc := func() []corpus.Document {
		n := seq.Add(1)
		return []corpus.Document{{
			ID:   fmt.Sprintf("new-%d", n),
			Text: fmt.Sprintf("ingested %s %s case %d", words[n%int64(len(words))], words[(n+4)%int64(len(words))], n),
		}}
	}

	b.Run("unbatched", func(b *testing.B) {
		b.ReportAllocs()
		st := state.NewStore(base.Clone(), o)
		b.SetParallelism(parallelism)
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				docs := nextDoc()
				_, err := st.UpdateDelta(func(cur *state.Snapshot) (*corpus.Corpus, *ontology.Ontology, *state.Delta, error) {
					cc := cur.Corpus.Clone()
					cc.AddAll(docs)
					cc.Build()
					return cc, cur.Ontology, &state.Delta{Docs: docs}, nil
				})
				if err != nil {
					b.Error(err)
					return
				}
			}
		})
	})

	b.Run("batched", func(b *testing.B) {
		b.ReportAllocs()
		st := state.NewStore(base.Clone(), o)
		bt := batch.New(st, nil)
		defer bt.Close()
		before := st.Load().Epoch
		b.SetParallelism(parallelism)
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if _, err := bt.Ingest(context.Background(), nextDoc()); err != nil {
					b.Error(err)
					return
				}
			}
		})
		b.StopTimer()
		if commits := st.Load().Epoch - before; commits > 0 {
			b.ReportMetric(float64(b.N)/float64(commits), "docs-per-epoch")
		}
	})
}
