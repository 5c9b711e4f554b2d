package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"time"

	"bioenrich/internal/classify"
	"bioenrich/internal/core"
	"bioenrich/internal/corpus"
	"bioenrich/internal/loadtest"
	"bioenrich/internal/ontology"
	"bioenrich/internal/state"
)

// env is one benchmark invocation's settings and scratch space.
type env struct {
	serveBin string
	corpora  string // generated corpora, kept across runs of one checkout
	work     string // this run's scratch directory, removed at exit
	seed     int64
	window   time.Duration
	segments int  // servers booted per workload, each measured for window/segments
	trace    bool // also run the in-process replay for per-layer numbers
}

// metricVal is one printed metric; n is the number of samples behind a
// sampled statistic (0 otherwise).
type metricVal struct {
	name  string
	unit  string
	value float64
	n     int
}

// hostRecord is the validity record printed with every run.
type hostRecord struct {
	NumCPU           int     `json:"num_cpu"`
	ServerGOMAXPROCS int     `json:"server_gomaxprocs"`
	GenGOMAXPROCS    int     `json:"generator_gomaxprocs"`
	CoLocated        bool    `json:"co_located"`
	GenCPUSeconds    float64 `json:"generator_cpu_s"`
	ServerCPUSeconds float64 `json:"server_cpu_s"`
	// GenLateP99Ms is how late the generator sent its requests: behind
	// the due time (open loop), the previous reply (closed loop) or the
	// poll tick (enrich jobs).
	GenLateP99Ms float64 `json:"generator_late_p99_ms"`
	// OpenLateP99Ms and DroppedSlots judge the open-loop writer; absent
	// without one.
	OpenLateP99Ms *float64 `json:"open_loop_late_p99_ms,omitempty"`
	DroppedSlots  int      `json:"dropped_slots"`
}

// pass is the outcome of one workload.
type pass struct {
	workload  string
	e2e       []metricVal
	layers    []metricVal
	attempted int
	failed    int
	host      hostRecord
	checks    []string // failed correctness checks
	invalid   string   // why the generator's numbers cannot be trusted
	// segmentP50 is the headline p50 of each segment's server.
	segmentP50 []float64
}

// add records an end-to-end metric. A statistic of no samples (NaN) is
// left out; a run missing a gated metric fails.
func (p *pass) add(name, unit string, v float64, n int) {
	if !math.IsNaN(v) {
		p.e2e = append(p.e2e, metricVal{name: name, unit: unit, value: v, n: n})
	}
}

func (p *pass) layer(name, unit string, v float64, n int) {
	if !math.IsNaN(v) {
		p.layers = append(p.layers, metricVal{name: p.workload + "." + name, unit: unit, value: v, n: n})
	}
}

// check records a failed correctness check; nil passes.
func (p *pass) check(what string, err error) {
	if err != nil {
		p.checks = append(p.checks, what+": "+err.Error())
	}
}

// addLatency adds <name>_p50_ms and, where at least ten samples lie
// beyond it, <name>_p99_ms.
func (p *pass) addLatency(name string, d durs) {
	ms := d.ms()
	p.add(name+"_p50_ms", "ms", percentile(ms, 0.5), len(ms))
	if tailOK(len(ms), 0.99) {
		p.add(name+"_p99_ms", "ms", percentile(ms, 0.99), len(ms))
	}
}

// addHeadline adds the two metrics every workload reports for its
// headline operation, the successful samples of the given kinds:
// p50_ms and mean_ms. It also keeps each segment's p50, which the
// record line carries so per-server variation stays visible.
func (p *pass) addHeadline(w *window, kinds ...loadtest.Op) {
	var all durs
	from := 0
	for _, to := range w.ends {
		var seg durs
		for _, d := range w.rec.log[from:to] {
			for _, k := range kinds {
				if d.ok && d.op.kind == k {
					seg = append(seg, d.lat)
				}
			}
		}
		if len(seg) > 0 {
			p.segmentP50 = append(p.segmentP50, percentile(seg.ms(), 0.5))
		}
		all = append(all, seg...)
		from = to
	}
	ms := all.ms()
	p.add("p50_ms", "ms", percentile(ms, 0.5), len(ms))
	p.add("mean_ms", "ms", mean(ms), len(ms))
}

func (p *pass) addSetup(setups []float64) {
	p.add("setup_s", "s", median(setups), len(setups))
}

// maxLateMs marks a run invalid: an open-loop generator that sent its
// p99 request this late behind schedule was itself the bottleneck.
const maxLateMs = 50

// window accumulates the measured segments of one workload. Each
// segment runs against its own freshly booted server, so the pooled
// samples average over per-process variation (heap layout, map seeds)
// as well as over time.
type window struct {
	rec            *recorder
	before, after  scrape // around the last segment; the traced pass has one
	genCPU, srvCPU float64
	dur            time.Duration
	ends           []int // len(rec.log) at the end of each segment
}

func newWindow() *window { return &window{rec: &recorder{}} }

// measure runs load for one segment of length d against srv, reading
// the server's counters and both processes' CPU time on either side.
func (w *window) measure(ctx context.Context, srv *serverProc, d time.Duration, load func(start, end time.Time, rec *recorder)) error {
	before, err := fetchScrape(ctx, srv.c)
	if err != nil {
		return err
	}
	g0 := genCPU()
	s0, err := srv.cpuSeconds()
	if err != nil {
		return err
	}
	start := time.Now()
	load(start, start.Add(d), w.rec)
	s1, err := srv.cpuSeconds()
	if err != nil {
		return err
	}
	after, err := fetchScrape(ctx, srv.c)
	if err != nil {
		return err
	}
	w.before, w.after = before, after
	w.genCPU += genCPU() - g0
	w.srvCPU += s1 - s0
	w.dur += d
	w.ends = append(w.ends, len(w.rec.log))
	return nil
}

// finish fills the host record, attempted/failed and fail_ratio from a
// window, and marks the run invalid if the generator ran late.
func (p *pass) finish(w *window, failed int) {
	p.host = hostRecord{
		NumCPU:           runtime.NumCPU(),
		ServerGOMAXPROCS: serverGOMAXPROCS(),
		GenGOMAXPROCS:    runtime.GOMAXPROCS(0),
		CoLocated:        true,
		GenCPUSeconds:    w.genCPU,
		ServerCPUSeconds: w.srvCPU,
		DroppedSlots:     w.rec.dropped,
	}
	if len(w.rec.late) > 0 {
		p.host.GenLateP99Ms = percentile(w.rec.late.ms(), 0.99)
	}
	if len(w.rec.openLate) > 0 {
		late := percentile(w.rec.openLate.ms(), 0.99)
		p.host.OpenLateP99Ms = &late
		if late > maxLateMs {
			p.invalid = fmt.Sprintf("open-loop generator late: p99 %.1f ms behind schedule (limit %d ms)", late, maxLateMs)
		}
	}
	p.attempted = len(w.rec.log) + failed + w.rec.dropped
	for _, d := range w.rec.log {
		if !d.ok {
			failed++
		}
	}
	p.failed = failed + w.rec.dropped
	if p.attempted > 0 {
		p.add("fail_ratio", "ratio", float64(p.failed)/float64(p.attempted), p.attempted)
	}
	if e := w.rec.dropped; e > 0 {
		p.invalid = fmt.Sprintf("generator dropped %d open-loop slots", e)
	}
	if len(w.rec.log) == 0 {
		p.invalid = "no request completed in the window"
	}
}

// serverGOMAXPROCS is what the server's runtime picks: the GOMAXPROCS
// it inherits from the environment, else the CPU count.
func serverGOMAXPROCS() int {
	if n, err := strconv.Atoi(os.Getenv("GOMAXPROCS")); err == nil && n > 0 {
		return n
	}
	return runtime.NumCPU()
}

func genCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// warmReads runs the read mix for d on both connections so the
// classify cache is built and the heap has grown before timing. Its
// payload streams are separate from the measured ones.
func warmReads(ctx context.Context, c *client, seed int64, d time.Duration) {
	end := time.Now().Add(d)
	var wg sync.WaitGroup
	for slot := 8; slot < 8+maxConns; slot++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			closedLoop(ctx, c, newGen(seed, slot), end, &recorder{})
		}(slot)
	}
	wg.Wait()
}

func fetchHealth(ctx context.Context, c *client) (health, error) {
	var h health
	r, err := c.get(ctx, "/v1/health")
	if err != nil {
		return h, err
	}
	if r.status != http.StatusOK {
		return h, fmt.Errorf("GET /v1/health: status %d", r.status)
	}
	return h, json.Unmarshal(r.body, &h)
}

func baseArgs(f corpusFiles) []string {
	return []string{"-corpus", f.corpus, "-ontology", f.ontology}
}

// segmentLen is one segment's share of the window.
func (e *env) segmentLen() time.Duration { return e.window / time.Duration(e.segments) }

// setupBoots is how many boots a measured run times for setup_s: one
// per segment, plus boots that only time the set-up.
const setupBoots = 5

// moreSetups boots and kills servers with args(i) until setups holds
// setupBoots set-up times. The traced pass reports no setup_s and boots
// no extra servers.
func moreSetups(ctx context.Context, e *env, name string, setups []float64, args func(i int) []string) ([]float64, error) {
	for i := len(setups); i < setupBoots && !e.trace; i++ {
		setup, err := segment(ctx, e, fmt.Sprintf("%s-setup-%d", name, i), args(i), func(*serverProc) error { return nil })
		if err != nil {
			return nil, err
		}
		setups = append(setups, setup)
	}
	return setups, nil
}

// segment boots one server and hands it to fn, killing it afterwards;
// it returns the set-up time.
func segment(ctx context.Context, e *env, name string, args []string, fn func(*serverProc) error) (float64, error) {
	srv, setup, err := bootServer(ctx, e, name, args)
	if err != nil {
		return 0, err
	}
	defer srv.kill()
	return setup.Seconds(), fn(srv)
}

// runRead is the read workload: the large corpus in memory, closed
// loop, read mix only, with the classify cache warm.
func runRead(ctx context.Context, e *env) (*pass, error) {
	p := &pass{workload: "read"}
	files, err := genCorpus(e.corpora, largeCorpus)
	if err != nil {
		return nil, err
	}
	gens := make([]*loadtest.Gen, maxConns)
	for i := range gens {
		gens[i] = newGen(e.seed, i)
	}
	w := newWindow()
	var setups, rss []float64
	var probes []probe
	for i := 0; i < e.segments; i++ {
		setup, err := segment(ctx, e, fmt.Sprintf("read-%d", i), baseArgs(files), func(srv *serverProc) error {
			if probes == nil {
				var err error
				if probes, err = expectProbes(ctx, srv.c, files, e.seed); err != nil {
					return err
				}
				// The library copy is garbage from here on; collect it now
				// so the generator's GC does not mark it during the window.
				runtime.GC()
			}
			p.check("probes before the window", checkProbes(ctx, srv.c, probes))
			warmReads(ctx, srv.c, e.seed, time.Second)
			err := w.measure(ctx, srv, e.segmentLen(), func(_, end time.Time, rec *recorder) {
				var wg sync.WaitGroup
				for _, g := range gens {
					wg.Add(1)
					go func(g *loadtest.Gen) {
						defer wg.Done()
						closedLoop(ctx, srv.c, g, end, rec)
					}(g)
				}
				wg.Wait()
			})
			if err != nil {
				return err
			}
			p.check("probes after the window", checkProbes(ctx, srv.c, probes))
			mb, err := srv.rssPeakMB()
			rss = append(rss, mb)
			return err
		})
		if err != nil {
			return nil, err
		}
		setups = append(setups, setup)
	}
	if setups, err = moreSetups(ctx, e, "read", setups, func(int) []string { return baseArgs(files) }); err != nil {
		return nil, err
	}

	var reads int
	for _, d := range w.rec.log {
		if d.ok {
			reads++
		}
	}
	p.addSetup(setups)
	p.addHeadline(w, loadtest.OpClassify)
	p.add("read_rps", "1/s", float64(reads)/w.dur.Seconds(), reads)
	for _, k := range []loadtest.Op{loadtest.OpSearch, loadtest.OpClassify, loadtest.OpRecommend} {
		p.addLatency(string(k), w.rec.latencies(k))
	}
	p.add("rss_peak_mb", "MiB", median(rss), len(rss))
	p.finish(w, 0)
	if e.trace {
		if err := traceReads(ctx, e, p, w, files); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// churnRate is the open-loop ingest rate of the churn writer.
const churnRate = 4

// runChurn is the churn workload: the large corpus on the disk backend
// with WAL fsync, one open-loop writer and one closed-loop reader, then
// a SIGKILL and a timed recovery on the same data directory.
func runChurn(ctx context.Context, e *env) (*pass, error) {
	p := &pass{workload: "churn"}
	files, err := genCorpus(e.corpora, largeCorpus)
	if err != nil {
		return nil, err
	}
	reader, writer := newGen(e.seed, 0), newGen(e.seed, 1)
	w := newWindow()
	var setups, rss, recovers []float64
	args := func(i int) []string {
		return append(baseArgs(files), "-data-dir", filepath.Join(e.work, fmt.Sprintf("churn-data-%d", i)))
	}
	for i := 0; i < e.segments; i++ {
		var acked health
		setup, err := segment(ctx, e, fmt.Sprintf("churn-%d", i), args(i), func(srv *serverProc) error {
			warmReads(ctx, srv.c, e.seed, time.Second)
			h0, err := fetchHealth(ctx, srv.c)
			if err != nil {
				return err
			}
			var n int
			err = w.measure(ctx, srv, e.segmentLen(), func(start, end time.Time, rec *recorder) {
				var wg sync.WaitGroup
				wg.Add(1)
				go func() {
					defer wg.Done()
					closedLoop(ctx, srv.c, reader, end, rec)
				}()
				n = openLoop(ctx, srv.c, writer, churnRate, start, end, rec)
				wg.Wait()
			})
			if err != nil {
				return err
			}
			if acked, err = fetchHealth(ctx, srv.c); err != nil {
				return err
			}
			if want := (health{Docs: h0.Docs + ingestDocs*n, Epoch: h0.Epoch + uint64(n)}); acked != want {
				p.check("state after the window", fmt.Errorf("served %+v, want %+v from %d acknowledged ingests", acked, want, n))
			}
			mb, err := srv.rssPeakMB()
			rss = append(rss, mb)
			return err // the deferred kill is the crash
		})
		if err != nil {
			return nil, err
		}
		setups = append(setups, setup)

		recover, err := segment(ctx, e, fmt.Sprintf("churn-recover-%d", i), args(i), func(srv *serverProc) error {
			h, err := fetchHealth(ctx, srv.c)
			if err == nil && h != acked {
				p.check("recovery after SIGKILL", fmt.Errorf("recovered %+v, acknowledged %+v", h, acked))
			}
			return err
		})
		if err != nil {
			return nil, err
		}
		recovers = append(recovers, recover)
	}
	if setups, err = moreSetups(ctx, e, "churn", setups, args); err != nil {
		return nil, err
	}

	var reads int
	for _, d := range w.rec.log {
		if d.ok && d.op.kind != loadtest.OpIngest {
			reads++
		}
	}
	p.addSetup(setups)
	p.addHeadline(w, loadtest.OpIngest)
	p.add("read_rps", "1/s", float64(reads)/w.dur.Seconds(), reads)
	for _, k := range []loadtest.Op{loadtest.OpSearch, loadtest.OpClassify, loadtest.OpRecommend, loadtest.OpIngest} {
		p.addLatency(string(k), w.rec.latencies(k))
	}
	p.add("recover_s", "s", median(recovers), len(recovers))
	p.add("rss_peak_mb", "MiB", median(rss), len(rss))
	p.finish(w, 0)
	if e.trace {
		if err := traceChurn(ctx, e, p, w, files); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// runEnrich is the enrich workload: the small corpus in memory, one
// client running read-only enrich jobs back to back.
func runEnrich(ctx context.Context, e *env) (*pass, error) {
	p := &pass{workload: "enrich"}
	files, err := genCorpus(e.corpora, smallCorpus)
	if err != nil {
		return nil, err
	}
	w := newWindow()
	var (
		setups, rss []float64
		warms, jobs []jobRecord
		failed      int
	)
	for i := 0; i < e.segments; i++ {
		setup, err := segment(ctx, e, fmt.Sprintf("enrich-%d", i), baseArgs(files), func(srv *serverProc) error {
			// One job before the window lets the heap grow to its
			// working size.
			warm, _, err := runJob(ctx, srv.c, time.Now().Add(time.Minute), &recorder{})
			if err != nil {
				return err
			}
			if warm == nil {
				return fmt.Errorf("warm-up enrich job did not finish")
			}
			warms = append(warms, *warm)
			var loopErr error
			err = w.measure(ctx, srv, e.segmentLen(), func(_, end time.Time, rec *recorder) {
				var got []jobRecord
				var f int
				got, f, loopErr = enrichLoop(ctx, srv.c, end, rec)
				jobs = append(jobs, got...)
				failed += f
				for _, j := range got {
					rec.addDone(done{op: op{kind: loadtest.OpEnrich}, lat: j.turnaround, ok: true})
				}
			})
			if err != nil {
				return err
			}
			if loopErr != nil {
				return loopErr
			}
			mb, err := srv.rssPeakMB()
			rss = append(rss, mb)
			return err
		})
		if err != nil {
			return nil, err
		}
		setups = append(setups, setup)
	}
	if setups, err = moreSetups(ctx, e, "enrich", setups, func(int) []string { return baseArgs(files) }); err != nil {
		return nil, err
	}

	c, o, err := loadLibrary(files)
	if err != nil {
		return nil, err
	}
	var want []byte
	if e.trace {
		want, err = traceEnrich(ctx, p, w, jobs, c, o)
	} else {
		want, err = referenceReport(ctx, c, o, core.DefaultConfig())
	}
	if err != nil {
		return nil, err
	}
	p.check("enrich reports", checkReports(want, append(warms, jobs...)))

	turn := w.rec.latencies(loadtest.OpEnrich)
	p.addSetup(setups)
	p.addHeadline(w, loadtest.OpEnrich)
	p.add("enrich_job_p50_s", "s", percentile(turn.ms(), 0.5)/1000, len(turn))
	p.add("rss_peak_mb", "MiB", median(rss), len(rss))
	p.finish(w, failed)
	return p, nil
}

// referenceReport runs the enrichment the server's jobs run, in
// process, and returns its report encoded as the server encodes it.
func referenceReport(ctx context.Context, c *corpus.Corpus, o *ontology.Ontology, cfg core.Config) ([]byte, error) {
	cfg.TopCandidates = enrichTop
	rep, err := core.NewEnricher(c, o, cfg).RunContext(ctx)
	if err != nil {
		return nil, err
	}
	if rep.Candidates == nil {
		rep.Candidates = []core.Candidate{}
	}
	return json.Marshal(rep)
}

// checkReports requires every job's report to hash equal to the
// in-process report.
func checkReports(want []byte, jobs []jobRecord) error {
	wantSum := sha256.Sum256(want)
	for _, j := range jobs {
		if got := sha256.Sum256(j.Result.Report); got != wantSum {
			return fmt.Errorf("job %s: report sha256 %x, in-process report %x", j.ID, got[:8], wantSum[:8])
		}
	}
	return nil
}

// probe is one fixed request and the body the library says the
// server must answer it with.
type probe struct {
	what   string
	method string
	path   string
	body   []byte
	want   []byte
}

// expectProbes builds fixed search and classify probes and answers
// them with in-process library calls on the snapshot the server booted
// from. The classify body carries the server's current epoch, which is
// how the comparison ignores it.
func expectProbes(ctx context.Context, c *client, files corpusFiles, seed int64) ([]probe, error) {
	h, err := fetchHealth(ctx, c)
	if err != nil {
		return nil, err
	}
	corp, ont, err := loadLibrary(files)
	if err != nil {
		return nil, err
	}
	snap := &state.Snapshot{Corpus: corp, Ontology: ont, Epoch: h.Epoch}
	cl := classify.New(classify.Options{})
	g := newGen(seed, 15)
	var out []probe
	for i := 0; i < 8; i++ {
		q, text := g.Query(), g.Text(textWords)
		hits := corp.Search(q, 10)
		if hits == nil {
			hits = []corpus.SearchHit{}
		}
		out = append(out, probe{what: "search " + q, method: http.MethodGet,
			path: "/v1/search?q=" + url.QueryEscape(q) + "&n=10", want: append(mustJSON(hits), '\n')})
		res, err := cl.Classify(ctx, "default", snap, text, 5)
		if err != nil {
			return nil, err
		}
		want := mustJSON(map[string]any{
			"ontology": "default", "epoch": res.Epoch, "lang": res.Lang,
			"doc_tokens": res.DocTokens, "concepts": res.Concepts,
		})
		out = append(out, probe{what: "classify", method: http.MethodPost, path: "/v1/classify",
			body: mustJSON(map[string]any{"text": text, "top": 5}), want: append(want, '\n')})
	}
	return out, nil
}

// checkProbes requires every probe's response body to be
// byte-identical to the library's.
func checkProbes(ctx context.Context, c *client, probes []probe) error {
	for _, pr := range probes {
		resp, err := c.do(ctx, pr.method, pr.path, pr.body)
		if err != nil {
			return err
		}
		if resp.status != http.StatusOK {
			return fmt.Errorf("%s: status %d", pr.what, resp.status)
		}
		if !bytes.Equal(resp.body, pr.want) {
			return fmt.Errorf("%s: server body differs from the library's (%d vs %d bytes)", pr.what, len(resp.body), len(pr.want))
		}
	}
	return nil
}
