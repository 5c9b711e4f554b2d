package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"sync"
	"time"

	"bioenrich/internal/corpus"
	"bioenrich/internal/loadtest"
)

// Payload shapes match internal/loadtest's workers, so the traffic is
// the existing load grid's.
const (
	vocabSize   = 400
	textWords   = 30
	ingestDocs  = 4
	ingestWords = 40
	enrichTop   = 3
	// enrichWorkers runs each job's steps II–IV on one worker. With the
	// default pool of one worker per core a job has no core to spare
	// for the generator and the GC, and on the two-core reference VM job
	// time then followed the host's other load (±20% between runs).
	// The report is identical at any worker count.
	enrichWorkers = 1
)

// readMix is the read-only blend both read and churn readers run.
var readMix = mustMix("search=60,classify=25,recommend=15")

func mustMix(s string) loadtest.Mix {
	m, err := loadtest.ParseMix(s)
	if err != nil {
		panic(err) // static literal
	}
	return m
}

// newGen builds the payload generator for one client. Its vocabulary
// comes from the mesh seed, so queries share words with the corpus;
// its op and payload stream comes from the benchmark seed and the
// client's slot.
func newGen(seed int64, slot int) *loadtest.Gen {
	return loadtest.NewGen(meshSeed, vocabSize, int(seed)*16+slot)
}

// op is one generated request plus the payload the in-process replay
// feeds to the library.
type op struct {
	kind   loadtest.Op
	method string
	path   string
	body   []byte
	query  string
	text   string
	docs   []corpus.Document
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain maps and documents always marshal
	}
	return b
}

func readOp(g *loadtest.Gen) op {
	switch k := g.Pick(readMix); k {
	case loadtest.OpSearch:
		q := g.Query()
		return op{kind: k, method: http.MethodGet, path: "/v1/search?q=" + url.QueryEscape(q) + "&n=10", query: q}
	case loadtest.OpClassify:
		t := g.Text(textWords)
		return op{kind: k, method: http.MethodPost, path: "/v1/classify", text: t,
			body: mustJSON(map[string]any{"text": t, "top": 5})}
	default:
		t := g.Text(textWords)
		return op{kind: loadtest.OpRecommend, method: http.MethodPost, path: "/v1/recommend", text: t,
			body: mustJSON(map[string]any{"text": t, "top": 3})}
	}
}

func ingestOp(g *loadtest.Gen) op {
	docs := g.Documents(ingestDocs, ingestWords)
	return op{kind: loadtest.OpIngest, method: http.MethodPost, path: "/v1/documents", docs: docs, body: mustJSON(docs)}
}

// done is one completed op as the generator saw it.
type done struct {
	op   op
	sent time.Time
	lat  time.Duration // completion − send (closed loop) or − due (open loop)
	ok   bool
}

// recorder collects the samples of one measured window. Requests still
// in flight when the window closes are discarded by the clients before
// they reach it: they are neither samples nor failures.
type recorder struct {
	mu       sync.Mutex
	log      []done
	late     durs // every request: send time − when it could have been sent
	openLate durs // open-loop requests only: send time − due time
	dropped  int
}

func (r *recorder) add(d done, late time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.log = append(r.log, d)
	r.late = append(r.late, late)
}

// addOpen records an open-loop sample, whose lateness decides whether
// the run is valid.
func (r *recorder) addOpen(d done, late time.Duration) {
	r.add(d, late)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.openLate = append(r.openLate, late)
}

// addDone records a sample whose lateness was recorded separately (an
// enrich job, whose polls carry the lateness).
func (r *recorder) addDone(d done) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.log = append(r.log, d)
}

// addLate records generator lateness for a request that is not itself
// a sample (an enrich-job poll).
func (r *recorder) addLate(late time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.late = append(r.late, late)
}

func (r *recorder) drop() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.dropped++
}

// ops returns the completed ops in send order: the op stream the
// traced replay feeds to the library.
func (r *recorder) ops() []done {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := append([]done(nil), r.log...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].sent.Before(out[j].sent) })
	return out
}

// latencies returns the successful samples of one op kind.
func (r *recorder) latencies(kind loadtest.Op) durs {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out durs
	for _, d := range r.log {
		if d.ok && d.op.kind == kind {
			out = append(out, d.lat)
		}
	}
	return out
}

// closedLoop runs one client that sends its next read as soon as the
// previous reply arrives, until end. Its lateness is the generator's
// own gap between a reply and the next send.
func closedLoop(ctx context.Context, c *client, g *loadtest.Gen, end time.Time, rec *recorder) {
	prev := time.Now()
	for {
		o := readOp(g)
		sent := time.Now()
		if !sent.Before(end) {
			return
		}
		r, err := c.do(ctx, o.method, o.path, o.body)
		fin := time.Now()
		if fin.After(end) {
			return // in flight when the window closed
		}
		rec.add(done{op: o, sent: sent, lat: fin.Sub(sent), ok: err == nil && r.status == http.StatusOK}, sent.Sub(prev))
		prev = fin
	}
}

// openLoop posts one ingest per 1/rate seconds from start until end,
// on one connection, timing each from the moment it was due. A slot a
// whole interval late is dropped rather than sent. It returns how many
// ingests the server acknowledged, counting those that completed after
// end (their samples are discarded, but their documents landed).
func openLoop(ctx context.Context, c *client, g *loadtest.Gen, rate float64, start, end time.Time, rec *recorder) (acked int) {
	interval := time.Duration(float64(time.Second) / rate)
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * interval)
		if !due.Before(end) {
			return acked
		}
		o := ingestOp(g)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		sent := time.Now()
		if sent.Sub(due) >= interval {
			rec.drop()
			continue
		}
		r, err := c.do(ctx, o.method, o.path, o.body)
		fin := time.Now()
		ok := err == nil && r.status == http.StatusOK
		if ok {
			acked++
		}
		if fin.After(end) {
			continue
		}
		rec.addOpen(done{op: o, sent: sent, lat: fin.Sub(due), ok: ok}, sent.Sub(due))
	}
}

// pollEvery paces enrich-job polls. Turnaround is ~2 s, so the ~5 ms
// mean wait a poll adds is well under 1% of it.
const pollEvery = 10 * time.Millisecond

// jobRecord is the job view GET /v1/jobs/{id} returns, plus what the
// generator measured.
type jobRecord struct {
	ID       string     `json:"id"`
	Status   string     `json:"status"`
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started"`
	Finished *time.Time `json:"finished"`
	Result   struct {
		Report json.RawMessage `json:"report"`
	} `json:"result"`

	turnaround time.Duration
}

// enrichLoop submits enrich jobs back to back, each polled until the
// client sees it finish, until end. A job still running at end is
// cancelled and discarded. Failed submissions and jobs that end in any
// state but done count as failures.
func enrichLoop(ctx context.Context, c *client, end time.Time, rec *recorder) (jobs []jobRecord, failed int, err error) {
	for time.Now().Before(end) {
		j, finished, err := runJob(ctx, c, end, rec)
		switch {
		case err != nil:
			return nil, 0, err
		case !finished:
			return jobs, failed, nil
		case j == nil:
			failed++
		default:
			jobs = append(jobs, *j)
		}
	}
	return jobs, failed, nil
}

// runJob submits one enrich job and polls it every pollEvery. It
// returns finished=false when end passed first (the job is then
// cancelled), and a nil record when the submission failed or the job
// ended in any state but done.
func runJob(ctx context.Context, c *client, end time.Time, rec *recorder) (*jobRecord, bool, error) {
	sent := time.Now()
	r, err := c.do(ctx, http.MethodPost, "/v1/jobs/enrich", mustJSON(map[string]any{"top": enrichTop, "apply": false, "workers": enrichWorkers}))
	if err != nil || r.status != http.StatusAccepted {
		return nil, true, nil
	}
	loc := r.header.Get("Location")
	prev := time.Now()
	for {
		due := prev.Add(pollEvery)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		polled := time.Now()
		if polled.After(end) {
			// In flight at the close: cancel so it frees the job worker.
			_, _ = c.do(ctx, http.MethodDelete, loc, nil)
			return nil, false, nil
		}
		pr, err := c.get(ctx, loc)
		prev = polled
		rec.addLate(polled.Sub(due))
		if err != nil {
			return nil, false, fmt.Errorf("poll %s: %w", loc, err)
		}
		if pr.status != http.StatusOK {
			return nil, false, fmt.Errorf("poll %s: status %d", loc, pr.status)
		}
		var j jobRecord
		if err := json.Unmarshal(pr.body, &j); err != nil {
			return nil, false, fmt.Errorf("poll %s: %w", loc, err)
		}
		switch j.Status {
		case "queued", "running":
			continue
		}
		fin := time.Now()
		if fin.After(end) {
			return nil, false, nil
		}
		if j.Status != "done" || j.Started == nil || j.Finished == nil {
			return nil, true, nil
		}
		j.turnaround = fin.Sub(sent)
		return &j, true, nil
	}
}
