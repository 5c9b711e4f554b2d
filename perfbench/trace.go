package main

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"bioenrich/internal/classify"
	"bioenrich/internal/core"
	"bioenrich/internal/corpus"
	"bioenrich/internal/loadtest"
	"bioenrich/internal/obs"
	"bioenrich/internal/ontology"
	"bioenrich/internal/recommend"
	"bioenrich/internal/state"
	"bioenrich/internal/storage"
	"bioenrich/internal/textutil"
)

// The traced pass measures each layer from outside the program: it
// replays the op stream the measured window completed, one call at a
// time, through the same library entry points the server calls, and
// times each call. Server-side numbers come only from the counters the
// server already exports on /v1/metrics, read before and after the
// window.

// replay feeds a recorded op stream to the library in process.
type replay struct {
	store   *state.Store
	reg     *obs.Registry // the benchmark's own registry, for classify's cache counters
	cl      *classify.Classifier
	durable *timedDurable // nil on the memory backend

	search, words, hit, rebuild, rank   durs
	clone, appendBuild, update, publish durs
}

func newReplay(store *state.Store) *replay {
	reg := obs.New()
	return &replay{store: store, reg: reg, cl: classify.New(classify.Options{Obs: reg})}
}

// timedDurable times the durability hook the store calls under its
// writer mutex: for the disk backend, the WAL append and its fsync.
type timedDurable struct {
	d    state.Durable
	last time.Duration
	all  durs
}

func (t *timedDurable) BeforePublish(next *state.Snapshot, delta *state.Delta) error {
	start := time.Now()
	err := t.d.BeforePublish(next, delta)
	t.last = time.Since(start)
	t.all = append(t.all, t.last)
	return err
}

// run replays ops in send order until they run out or budget passes.
func (r *replay) run(ctx context.Context, ops []done, budget time.Duration) error {
	start := time.Now()
	for _, d := range ops {
		if time.Since(start) > budget {
			return nil
		}
		if err := r.one(ctx, d.op); err != nil {
			return fmt.Errorf("replay %s: %w", d.op.kind, err)
		}
	}
	return nil
}

func (r *replay) one(ctx context.Context, o op) error {
	snap := r.store.Load()
	switch o.kind {
	case loadtest.OpSearch:
		t := time.Now()
		snap.Corpus.Search(o.query, 10)
		r.search = append(r.search, time.Since(t))
	case loadtest.OpClassify:
		t := time.Now()
		textutil.ContentWords(o.text, snap.Corpus.Lang())
		r.words = append(r.words, time.Since(t))
		misses := r.reg.Counter(classify.CacheMissesMetric)
		m0 := misses.Value()
		t = time.Now()
		if _, err := r.cl.Classify(ctx, "default", snap, o.text, 5); err != nil {
			return err
		}
		if d := time.Since(t); misses.Value() > m0 {
			r.rebuild = append(r.rebuild, d)
		} else {
			r.hit = append(r.hit, d)
		}
	case loadtest.OpRecommend:
		t := time.Now()
		if _, err := recommend.Rank(ctx, []recommend.Input{{Name: "default", Snap: snap}}, o.text, recommend.Options{}); err != nil {
			return err
		}
		r.rank = append(r.rank, time.Since(t))
	case loadtest.OpIngest:
		// The same mutation internal/batch commits for one group.
		var t1, t2, t3 time.Time
		t0 := time.Now()
		_, err := r.store.UpdateDelta(func(cur *state.Snapshot) (*corpus.Corpus, *ontology.Ontology, *state.Delta, error) {
			t1 = time.Now()
			cc := cur.Corpus.Clone()
			t2 = time.Now()
			cc.AppendBuild(o.docs)
			t3 = time.Now()
			return cc, cur.Ontology, &state.Delta{Docs: o.docs}, nil
		})
		if err != nil {
			return err
		}
		update := time.Since(t0)
		var wal time.Duration
		if r.durable != nil {
			wal = r.durable.last
		}
		r.clone = append(r.clone, t2.Sub(t1))
		r.appendBuild = append(r.appendBuild, t3.Sub(t2))
		r.update = append(r.update, update)
		r.publish = append(r.publish, update-t3.Sub(t1)-wal)
	}
	return nil
}

// meanMs is the mean of d in milliseconds (0 when empty).
func meanMs(d durs) float64 {
	if len(d) == 0 {
		return 0
	}
	return mean(d.ms())
}

var routes = map[loadtest.Op]string{
	loadtest.OpSearch:    "GET /v1/search",
	loadtest.OpClassify:  "POST /v1/classify",
	loadtest.OpRecommend: "POST /v1/recommend",
	loadtest.OpIngest:    "POST /v1/documents",
}

// serverMs is the server's mean handler time for op over the window,
// from bioenrich_http_request_seconds.
func serverMs(w *window, o loadtest.Op) (float64, int) {
	m, n := histMean(w.before, w.after, "bioenrich_http_request_seconds", endpointLabel(routes[o]))
	return m * 1000, int(n)
}

// rebuildRatio is the share of the window's classify requests that
// rebuilt the profile index, from the server's cache-miss counter.
func rebuildRatio(w *window) (float64, int) {
	_, n := serverMs(w, loadtest.OpClassify)
	if n == 0 {
		return 0, 0
	}
	return delta(w.before, w.after, classify.CacheMissesMetric) / float64(n), n
}

// readLayers records the layers the read mix crosses: the server
// handler, the library call it makes, and their difference (HTTP,
// JSON and routing overhead).
func readLayers(p *pass, w *window, r *replay, overheads ...loadtest.Op) {
	ratio, nClassify := rebuildRatio(w)
	hit, rebuild := meanMs(r.hit), meanMs(r.rebuild)
	classifyMs := hit*(1-ratio) + rebuild*ratio
	if len(r.hit) == 0 {
		classifyMs = rebuild
	}
	library := map[loadtest.Op]float64{
		loadtest.OpSearch:    meanMs(r.search),
		loadtest.OpClassify:  classifyMs,
		loadtest.OpRecommend: meanMs(r.rank),
	}
	for _, o := range []loadtest.Op{loadtest.OpSearch, loadtest.OpClassify, loadtest.OpRecommend} {
		ms, n := serverMs(w, o)
		p.layer("server."+string(o)+"_ms", "ms", ms, n)
	}
	for _, o := range overheads {
		ms, n := serverMs(w, o)
		p.layer("server."+string(o)+"_overhead_ms", "ms", ms-library[o], n)
	}
	p.layer("classify.rebuild_ratio", "ratio", ratio, nClassify)
}

func loadgenLayers(p *pass, w *window) {
	p.layer("loadgen.cpu_s", "s", w.genCPU, 1)
	p.layer("loadgen.late_p99_ms", "ms", percentile(w.rec.late.ms(), 0.99), len(w.rec.late))
}

// traceReads replays the read window against the snapshot the server
// booted from.
func traceReads(ctx context.Context, e *env, p *pass, w *window, files corpusFiles) error {
	c, o, err := loadLibrary(files)
	if err != nil {
		return err
	}
	r := newReplay(state.NewStore(c, o))
	// The server's profile index was warm before the window; so is the
	// replay's.
	if _, err := r.cl.Classify(ctx, "default", r.store.Load(), newGen(e.seed, 15).Text(textWords), 5); err != nil {
		return err
	}
	if err := r.run(ctx, w.rec.ops(), e.window); err != nil {
		return err
	}
	readLayers(p, w, r, loadtest.OpSearch, loadtest.OpClassify, loadtest.OpRecommend)
	p.layer("corpus.search_ms", "ms", meanMs(r.search), len(r.search))
	p.layer("textutil.content_words_ms", "ms", meanMs(r.words), len(r.words))
	p.layer("classify.hit_ms", "ms", meanMs(r.hit), len(r.hit))
	p.layer("recommend.rank_ms", "ms", meanMs(r.rank), len(r.rank))
	loadgenLayers(p, w)
	return nil
}

// traceChurn replays the churn window, ingests included, against an
// in-process store on its own disk backend seeded as cmd/serve seeds a
// cold data directory.
func traceChurn(ctx context.Context, e *env, p *pass, w *window, files corpusFiles) error {
	c, o, err := loadLibrary(files)
	if err != nil {
		return err
	}
	disk, err := storage.OpenDisk(storage.DiskOptions{Dir: filepath.Join(e.work, "replay-data")})
	if err != nil {
		return err
	}
	defer disk.Close()
	if err := disk.Checkpoint(&state.Snapshot{Corpus: c, Ontology: o, Epoch: 1}); err != nil {
		return err
	}
	store := state.NewStore(c, o)
	td := &timedDurable{d: disk}
	store.SetDurable(td)
	r := newReplay(store)
	r.durable = td
	if err := r.run(ctx, w.rec.ops(), e.window); err != nil {
		return err
	}
	// The clean-shutdown checkpoint cmd/serve writes: one full segment.
	t := time.Now()
	if err := disk.Checkpoint(store.Load()); err != nil {
		return err
	}
	checkpoint := time.Since(t)

	readLayers(p, w, r, loadtest.OpClassify)
	ingestMs, nIngest := serverMs(w, loadtest.OpIngest)
	p.layer("server.ingest_ms", "ms", ingestMs, nIngest)
	p.layer("corpus.clone_ms", "ms", meanMs(r.clone), len(r.clone))
	p.layer("corpus.append_ms", "ms", meanMs(r.appendBuild), len(r.appendBuild))
	p.layer("classify.rebuild_ms", "ms", meanMs(r.rebuild), len(r.rebuild))
	p.layer("state.publish_ms", "ms", meanMs(r.publish), len(r.publish))
	p.layer("storage.wal_ms", "ms", meanMs(td.all), len(td.all))
	fsync, nFsync := histMean(w.before, w.after, storage.FsyncSecondsMetric, "")
	p.layer("storage.fsync_ms", "ms", fsync*1000, int(nFsync))
	docs := delta(w.before, w.after, storage.WALDocsMetric)
	p.layer("storage.wal_bytes_per_doc", "B/doc", ratioOr0(delta(w.before, w.after, storage.WALBytesMetric), docs), int(docs))
	p.layer("storage.checkpoint_ms", "ms", msOf(checkpoint), 1)
	p.layer("storage.checkpoints", "count", delta(w.before, w.after, storage.SegmentsWrittenMetric), 1)
	groups := delta(w.before, w.after, "bioenrich_ingest_batches_total")
	p.layer("batch.docs_per_group", "docs/group", ratioOr0(delta(w.before, w.after, "bioenrich_ingest_batched_docs_total"), groups), int(groups))
	p.layer("batch.wait_ms", "ms", ingestMs-meanMs(r.update), nIngest)
	loadgenLayers(p, w)
	return nil
}

func ratioOr0(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// enrichReplays is how many in-process enrichment runs the traced
// pass times.
const enrichReplays = 2

// traceEnrich times the four steps with the benchmark's own registry
// in core.Config.Obs, and returns the in-process report the jobs must
// match.
func traceEnrich(ctx context.Context, p *pass, w *window, jobs []jobRecord, c *corpus.Corpus, o *ontology.Ontology) ([]byte, error) {
	reg := obs.New()
	cfg := core.DefaultConfig()
	cfg.Obs = reg
	cfg.Workers = enrichWorkers // as the jobs run
	var report []byte
	for i := 0; i < enrichReplays; i++ {
		var err error
		if report, err = referenceReport(ctx, c, o, cfg); err != nil {
			return nil, err
		}
	}
	spans := map[string]obs.SpanSummary{}
	for _, s := range reg.SpanSummaries() {
		spans[s.Name] = s
	}
	for _, s := range []struct{ metric, span string }{
		{"core.step1_extract_s", "step1.extract"},
		{"core.step2_polysemy_s", "step2.polysemy"},
		{"core.step3_senseind_s", "step3.senseind"},
		{"core.step4_linkage_s", "step4.linkage"},
		{"core.run_s", "enrich.run"},
	} {
		sum := spans[s.span]
		p.layer(s.metric, "s", sum.Mean().Seconds(), int(sum.Count))
	}
	serverRun, n := histMean(w.before, w.after, obs.SpanMetric, `{span="enrich.run"}`)
	p.layer("core.server_run_s", "s", serverRun, int(n))

	hits := reg.Counter("bioenrich_linkage_cache_hits_total").Value()
	misses := reg.Counter("bioenrich_linkage_cache_misses_total").Value()
	p.layer("linkage.cache_hit_ratio", "ratio", ratioOr0(hits, hits+misses), int(hits+misses))

	var wait, run durs
	for _, j := range jobs {
		wait = append(wait, j.Started.Sub(j.Created))
		run = append(run, j.Finished.Sub(*j.Started))
	}
	p.layer("jobs.queue_wait_ms", "ms", meanMs(wait), len(wait))
	p.layer("jobs.run_s", "s", meanMs(run)/1000, len(run))
	loadgenLayers(p, w)
	return report, nil
}
