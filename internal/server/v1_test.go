package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"bioenrich/internal/core"
	"bioenrich/internal/corpus"
	"bioenrich/internal/obs"
	"bioenrich/internal/synth"
	"bioenrich/internal/termex"
)

// startedServer builds a server over the small fixture data and
// serves it; its jobs die with the test.
func startedServer(t *testing.T, opts Options) (*httptest.Server, *Server) {
	t.Helper()
	c, o := fixtureData(t)
	srv := newServer(t, c, o, opts)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, srv
}

// startedSlowServer is startedServer over a synthetic mesh big enough
// that one enrichment run takes on the order of a second — long
// enough to observe reads landing while a job grinds.
func startedSlowServer(t *testing.T, opts Options) (*httptest.Server, *Server) {
	t.Helper()
	mesh, c := slowMesh()
	srv := newServer(t, c, mesh.Ontology, opts)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, srv
}

// slowMesh is startedSlowServer's data: a fresh copy on every call.
func slowMesh() (*synth.Mesh, *corpus.Corpus) {
	mopts := synth.DefaultMeshOptions()
	mopts.Branches = 3
	mopts.Depth = 2
	copts := synth.DefaultCorpusOptions()
	copts.DocsPerConcept = 4
	mesh := synth.GenerateMesh(mopts)
	return mesh, synth.GenerateMeshCorpus(mesh, copts)
}

// envelope decodes the uniform error body and returns its code.
func envelopeCode(t *testing.T, body []byte) string {
	t.Helper()
	var env struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("decoding error envelope from %q: %v", body, err)
	}
	if env.Error.Code == "" || env.Error.Message == "" {
		t.Fatalf("error envelope incomplete: %q", body)
	}
	return env.Error.Code
}

func readAll(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// postJob submits an enrichment job and returns its id.
func postJob(t *testing.T, base, body string) string {
	t.Helper()
	resp, err := http.Post(base+"/v1/jobs/enrich", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	b := readAll(t, resp)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d body %s", resp.StatusCode, b)
	}
	var view struct {
		ID     string `json:"id"`
		Status string `json:"status"`
	}
	if err := json.Unmarshal(b, &view); err != nil {
		t.Fatal(err)
	}
	if view.ID == "" || view.Status != "queued" {
		t.Fatalf("submit view = %s", b)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/jobs/"+view.ID {
		t.Errorf("Location = %q", loc)
	}
	return view.ID
}

// pollJob polls GET /v1/jobs/{id} until the status predicate holds.
func pollJob(t *testing.T, base, id string, want func(status string) bool) map[string]any {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		out := getJSON(t, base+"/v1/jobs/"+id, http.StatusOK)
		if s, _ := out["status"].(string); want(s) {
			return out
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached wanted status", id)
	return nil
}

// send issues one request (no body when body is empty) and returns the
// response with its body read.
func send(t *testing.T, method, url, body string) (*http.Response, []byte) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp, readAll(t, resp)
}

// TestV1AliasParity: every legacy unversioned route serves the same
// status, body and X-Epoch as its /v1 twin, plus the Deprecation and
// Sunset headers (which the /v1 route must not carry). Each side gets
// a fresh server, so a mutating alias sees the state its twin saw.
func TestV1AliasParity(t *testing.T) {
	cases := []struct{ method, v1, legacy, body string }{
		{"GET", "/v1/health", "/health", ""},
		{"GET", "/v1/ontology/stats", "/ontology/stats", ""},
		{"GET", "/v1/ontology/terms/corneal%20injury", "/ontology/term?t=corneal%20injury", ""},
		{"GET", "/v1/search?q=corneal", "/search?q=corneal", ""},
		{"GET", "/v1/extract?top=5", "/extract?top=5", ""},
		{"GET", "/v1/senses?term=corneal+abrasion&monosemic=1", "/senses?term=corneal+abrasion&monosemic=1", ""},
		{"GET", "/v1/link?term=corneal+abrasion&top=5", "/link?term=corneal+abrasion&top=5", ""},
		{"GET", "/v1/relations?top=5", "/relations?top=5", ""},
		{"POST", "/v1/documents", "/documents", `[{"id":"n1","text":"Fresh corneal abrasion case."}]`},
		{"POST", "/v1/enrich", "/enrich", `{"top":3,"apply":false}`},
		{"POST", "/v1/disambiguate", "/disambiguate", `{"term":"corneal abrasion","context":["epithelium","scarring","grafts"]}`},
	}
	for _, tc := range cases {
		v1, v1Body := send(t, tc.method, testServer(t).URL+tc.v1, tc.body)
		legacy, legacyBody := send(t, tc.method, testServer(t).URL+tc.legacy, tc.body)
		if v1.StatusCode != http.StatusOK || legacy.StatusCode != http.StatusOK {
			t.Errorf("%s/%s: status %d/%d", tc.v1, tc.legacy, v1.StatusCode, legacy.StatusCode)
			continue
		}
		if string(v1Body) != string(legacyBody) {
			t.Errorf("%s and %s disagree:\n%s\nvs\n%s", tc.v1, tc.legacy, v1Body, legacyBody)
		}
		if a, b := v1.Header.Get("X-Epoch"), legacy.Header.Get("X-Epoch"); a != b {
			t.Errorf("%s/%s: X-Epoch %q/%q", tc.v1, tc.legacy, a, b)
		}
		checkDeprecation(t, tc.v1, v1, tc.legacy, legacy)
	}

	// The exposition is live, so for /metrics only the headers are pinned.
	ts := obsFixture(t, Options{Obs: obs.New()})
	v1, _ := send(t, "GET", ts.URL+"/v1/metrics", "")
	legacy, _ := send(t, "GET", ts.URL+"/metrics", "")
	checkDeprecation(t, "/v1/metrics", v1, "/metrics", legacy)
}

// checkDeprecation asserts the legacy response carries the Deprecation
// and Sunset headers and its /v1 twin neither.
func checkDeprecation(t *testing.T, v1Path string, v1 *http.Response, legacyPath string, legacy *http.Response) {
	t.Helper()
	if got := legacy.Header.Get("Deprecation"); got != "true" {
		t.Errorf("%s: Deprecation = %q, want true", legacyPath, got)
	}
	if got := legacy.Header.Get("Sunset"); got != LegacySunset {
		t.Errorf("%s: Sunset = %q, want %q", legacyPath, got, LegacySunset)
	}
	if d, s := v1.Header.Get("Deprecation"), v1.Header.Get("Sunset"); d != "" || s != "" {
		t.Errorf("%s: unexpected Deprecation %q / Sunset %q", v1Path, d, s)
	}
}

// TestDefaultNamedParity: the default entry answers identically
// through its /v1 pattern and its /v1/ontologies/default form — same
// status, body bytes and X-Epoch, errors included. Each side gets a
// fresh server.
func TestDefaultNamedParity(t *testing.T) {
	cases := []struct{ method, v1, named, body string }{
		{"GET", "/v1/search?q=corneal", "/v1/ontologies/default/search?q=corneal", ""},
		{"GET", "/v1/search?q=corneal&n=abc", "/v1/ontologies/default/search?q=corneal&n=abc", ""},
		{"POST", "/v1/classify", "/v1/ontologies/default/classify", `{"text":"corneal injury with epithelium scarring"}`},
		{"POST", "/v1/classify", "/v1/ontologies/default/classify", `{"text":"corneal injury","epoch":99}`},
		{"POST", "/v1/documents", "/v1/ontologies/default/documents", `[{"id":"n1","text":"Fresh corneal abrasion case."}]`},
		{"POST", "/v1/documents", "/v1/ontologies/default/documents", `[]`},
	}
	for _, tc := range cases {
		v1, v1Body := send(t, tc.method, testServer(t).URL+tc.v1, tc.body)
		named, namedBody := send(t, tc.method, testServer(t).URL+tc.named, tc.body)
		if v1.StatusCode != named.StatusCode {
			t.Errorf("%s/%s %s: status %d/%d", tc.v1, tc.named, tc.body, v1.StatusCode, named.StatusCode)
		}
		if string(v1Body) != string(namedBody) {
			t.Errorf("%s and %s disagree on %s:\n%s\nvs\n%s", tc.v1, tc.named, tc.body, v1Body, namedBody)
		}
		if a, b := v1.Header.Get("X-Epoch"), named.Header.Get("X-Epoch"); a != b {
			t.Errorf("%s/%s: X-Epoch %q/%q", tc.v1, tc.named, a, b)
		}
	}
}

// TestErrorEnvelope: errors arrive as
// {"error":{"code":...,"message":...}} with the documented codes.
func TestErrorEnvelope(t *testing.T) {
	ts := testServer(t)
	cases := []struct {
		path   string
		status int
		code   string
	}{
		{"/v1/search", http.StatusBadRequest, "invalid_argument"},
		{"/v1/search?q=x&n=abc", http.StatusBadRequest, "invalid_argument"},
		{"/v1/ontology/terms/nosuchterm", http.StatusNotFound, "not_found"},
		{"/v1/jobs/j-000042", http.StatusNotFound, "not_found"},
	}
	for _, tc := range cases {
		resp, err := http.Get(ts.URL + tc.path)
		if err != nil {
			t.Fatal(err)
		}
		b := readAll(t, resp)
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d", tc.path, resp.StatusCode, tc.status)
			continue
		}
		if code := envelopeCode(t, b); code != tc.code {
			t.Errorf("%s: code %q, want %q", tc.path, code, tc.code)
		}
	}
}

// TestRequestID: every response carries X-Request-ID; a well-formed
// client id is propagated, a hostile one replaced.
func TestRequestID(t *testing.T) {
	ts := testServer(t)
	resp, err := http.Get(ts.URL + "/v1/health")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	generated := resp.Header.Get("X-Request-ID")
	if !regexp.MustCompile(`^[0-9a-f]{16}$`).MatchString(generated) {
		t.Errorf("generated id = %q", generated)
	}

	for provided, wantEcho := range map[string]bool{
		"trace-42.a_b":                true,
		"bad id\twith\tcontrol chars": false,
		strings.Repeat("x", 65):       false,
	} {
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/health", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Request-ID", provided)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		got := resp.Header.Get("X-Request-ID")
		if wantEcho && got != provided {
			t.Errorf("id %q not propagated (got %q)", provided, got)
		}
		if !wantEcho && (got == provided || got == "") {
			t.Errorf("hostile id %q not replaced (got %q)", provided, got)
		}
	}
}

// TestSearchEmptyIsArray: zero hits encode as [], never null (the
// nil-slice bug class fixed across handlers).
func TestSearchEmptyIsArray(t *testing.T) {
	ts := testServer(t)
	resp, err := http.Get(ts.URL + "/v1/search?q=zzznonexistentzzz")
	if err != nil {
		t.Fatal(err)
	}
	b := readAll(t, resp)
	if strings.TrimSpace(string(b)) != "[]" {
		t.Errorf("empty search body = %q, want []", b)
	}
	// The ontology term endpoint's concepts field is likewise a list.
	out := getJSON(t, ts.URL+"/v1/ontology/terms/corneal%20damage", http.StatusOK)
	if _, ok := out["concepts"].([]any); !ok {
		t.Errorf("concepts = %T %v, want array", out["concepts"], out["concepts"])
	}
}

// TestDocumentsAdvanceEpoch: ingestion commits through the store and
// reports the new epoch; health agrees.
func TestDocumentsAdvanceEpoch(t *testing.T) {
	ts := testServer(t)
	before := getJSON(t, ts.URL+"/v1/health", http.StatusOK)["epoch"].(float64)
	resp, err := http.Post(ts.URL+"/v1/documents", "application/json",
		strings.NewReader(`[{"id":"n1","text":"corneal text"}]`))
	if err != nil {
		t.Fatal(err)
	}
	b := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d body %s", resp.StatusCode, b)
	}
	var out struct {
		Docs  int     `json:"docs"`
		Epoch float64 `json:"epoch"`
	}
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if out.Epoch != before+1 || out.Docs != 5 {
		t.Errorf("after ingest: %+v (epoch before %v)", out, before)
	}
}

// TestEnrichEpochConflict: an enrich pinned to a superseded epoch is
// rejected with 409/conflict before any work runs, and nothing
// mutates.
func TestEnrichEpochConflict(t *testing.T) {
	ts := testServer(t)
	stale := getJSON(t, ts.URL+"/v1/health", http.StatusOK)["epoch"].(float64)
	// Move the store forward.
	resp, err := http.Post(ts.URL+"/v1/documents", "application/json",
		strings.NewReader(`[{"id":"n1","text":"corneal text"}]`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	terms := getJSON(t, ts.URL+"/v1/ontology/stats", http.StatusOK)["terms"].(float64)
	resp, err = http.Post(ts.URL+"/v1/enrich", "application/json",
		strings.NewReader(fmt.Sprintf(`{"top":3,"apply":true,"epoch":%d}`, int(stale))))
	if err != nil {
		t.Fatal(err)
	}
	b := readAll(t, resp)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("status = %d body %s, want 409", resp.StatusCode, b)
	}
	if code := envelopeCode(t, b); code != "conflict" {
		t.Errorf("code = %q, want conflict", code)
	}
	if after := getJSON(t, ts.URL+"/v1/ontology/stats", http.StatusOK)["terms"].(float64); after != terms {
		t.Errorf("stale apply mutated the ontology: %v -> %v terms", terms, after)
	}
}

// TestJobLifecycleHTTP: submit → 202 + Location, poll to done, result
// carries the report, the job shows in the list, cancelling a
// finished job is a conflict.
func TestJobLifecycleHTTP(t *testing.T) {
	ts, _ := startedServer(t, Options{})
	id := postJob(t, ts.URL, `{"top":3}`)
	final := pollJob(t, ts.URL, id, func(s string) bool { return s == "done" })
	result, ok := final["result"].(map[string]any)
	if !ok {
		t.Fatalf("result = %v", final["result"])
	}
	if _, ok := result["report"]; !ok {
		t.Errorf("job result lacks report: %v", result)
	}
	if final["request_id"] == "" {
		t.Error("job lost its request id")
	}

	list := getJSON(t, ts.URL+"/v1/jobs", http.StatusOK)
	jobsList, ok := list["jobs"].([]any)
	if !ok || len(jobsList) != 1 {
		t.Fatalf("jobs list = %v", list)
	}

	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	b := readAll(t, resp)
	if resp.StatusCode != http.StatusConflict || envelopeCode(t, b) != "conflict" {
		t.Errorf("cancel finished job: status %d body %s, want 409/conflict", resp.StatusCode, b)
	}
}

// TestJobResultEncoded: a finished job holds its result as the encoded
// bytes, not the live report, and the report it serves is byte for
// byte the in-process report's encoding.
func TestJobResultEncoded(t *testing.T) {
	ts, srv := startedServer(t, Options{})
	id := postJob(t, ts.URL, `{"top":3}`)
	pollJob(t, ts.URL, id, func(s string) bool { return s == "done" })
	job, ok := srv.jobs.Get(id)
	if !ok {
		t.Fatalf("job %s not found", id)
	}
	if _, ok := job.Result.(json.RawMessage); !ok {
		t.Errorf("job result is %T, want json.RawMessage", job.Result)
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	var view struct {
		Result struct {
			Report json.RawMessage `json:"report"`
		} `json:"result"`
	}
	if err := json.Unmarshal(readAll(t, resp), &view); err != nil {
		t.Fatal(err)
	}
	c, o := fixtureData(t)
	cfg := core.DefaultConfig()
	cfg.TopCandidates = 3
	rep, err := core.NewEnricher(c, o, cfg).Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Candidates == nil {
		rep.Candidates = []core.Candidate{}
	}
	want, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(view.Result.Report, want) {
		t.Errorf("job report:\n got %s\nwant %s", view.Result.Report, want)
	}
}

// TestExtractBesideJob: a /v1/extract and an enrich job on one entry at
// once share its corpus's step I table, and each answers what it
// answers alone, on a fresh copy of the corpus.
func TestExtractBesideJob(t *testing.T) {
	ts, _ := startedSlowServer(t, Options{})
	extracted := make(chan []byte, 1)
	go func() {
		var b []byte
		defer func() { extracted <- b }()
		resp, err := http.Get(ts.URL + "/v1/extract?top=5")
		if err != nil {
			t.Error(err)
			return
		}
		defer resp.Body.Close()
		if b, err = io.ReadAll(resp.Body); err != nil || resp.StatusCode != http.StatusOK {
			t.Errorf("extract: status %d, %v", resp.StatusCode, err)
		}
	}()
	id := postJob(t, ts.URL, `{"top":3}`)
	pollJob(t, ts.URL, id, func(s string) bool { return s == "done" })
	var job struct {
		Result struct {
			Report json.RawMessage `json:"report"`
		} `json:"result"`
	}
	_, b := send(t, http.MethodGet, ts.URL+"/v1/jobs/"+id, "")
	if err := json.Unmarshal(b, &job); err != nil {
		t.Fatal(err)
	}
	var ranked []termex.ScoredTerm
	if err := json.Unmarshal(<-extracted, &ranked); err != nil {
		t.Fatal(err)
	}

	mesh, c := slowMesh()
	ext := termex.NewExtractor(c)
	ext.LearnPatterns(mesh.Ontology.Terms())
	want, err := ext.Rank(context.Background(), termex.LIDF, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(ranked, want) {
		t.Errorf("extract beside a job:\n got %v\nwant %v", ranked, want)
	}
	mesh, c = slowMesh()
	cfg := core.DefaultConfig()
	cfg.TopCandidates = 3
	rep, err := core.NewEnricher(c, mesh.Ontology, cfg).Run()
	if err != nil {
		t.Fatal(err)
	}
	wantReport, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(job.Result.Report, wantReport) {
		t.Errorf("job beside an extract:\n got %s\nwant %s", job.Result.Report, wantReport)
	}
}

// TestJobQueueFull: a single slow runner and a queue of one make
// rapid submissions overflow into 429/queue_full.
func TestJobQueueFull(t *testing.T) {
	ts, _ := startedSlowServer(t, Options{JobQueue: 1, JobWorkers: 1})
	var got429 bool
	for i := 0; i < 8 && !got429; i++ {
		resp, err := http.Post(ts.URL+"/v1/jobs/enrich", "application/json", strings.NewReader(`{"top":3}`))
		if err != nil {
			t.Fatal(err)
		}
		b := readAll(t, resp)
		switch resp.StatusCode {
		case http.StatusAccepted:
		case http.StatusTooManyRequests:
			got429 = true
			if code := envelopeCode(t, b); code != "queue_full" {
				t.Errorf("429 code = %q, want queue_full", code)
			}
		default:
			t.Fatalf("submit %d: status %d body %s", i, resp.StatusCode, b)
		}
	}
	if !got429 {
		t.Error("8 rapid submissions into a queue of 1 never overflowed")
	}
}

// TestJobCancelHTTP: DELETE on a running job cancels it; it lands in
// cancelled with the cancelled error code.
func TestJobCancelHTTP(t *testing.T) {
	ts, _ := startedSlowServer(t, Options{})
	id := postJob(t, ts.URL, `{"top":5}`)
	pollJob(t, ts.URL, id, func(s string) bool { return s == "running" })
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: status %d", resp.StatusCode)
	}
	final := pollJob(t, ts.URL, id, func(s string) bool {
		return s == "cancelled" || s == "failed" || s == "done"
	})
	if final["status"] != "cancelled" {
		t.Fatalf("final = %v", final)
	}
	errObj, ok := final["error"].(map[string]any)
	if !ok || errObj["code"] != "cancelled" {
		t.Errorf("job error = %v, want code cancelled", final["error"])
	}
}

// TestJobTTLGC: a finished job is removed once its TTL lapses, after
// which polling it is a 404.
func TestJobTTLGC(t *testing.T) {
	ts, _ := startedServer(t, Options{JobTTL: 200 * time.Millisecond})
	id := postJob(t, ts.URL, `{"top":2}`)
	pollJob(t, ts.URL, id, func(s string) bool { return s == "done" })
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusNotFound {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatal("finished job was never garbage-collected")
}

// TestReadsNotBlockedByApplyJob is the tentpole's proof: while an
// apply job grinds through the pipeline, /v1/health and /v1/search
// answer with bounded latency — under the old RWMutex design they
// queued behind the writer for the whole run.
func TestReadsNotBlockedByApplyJob(t *testing.T) {
	ts, _ := startedSlowServer(t, Options{})
	id := postJob(t, ts.URL, `{"top":10,"apply":true,"workers":2}`)
	pollJob(t, ts.URL, id, func(s string) bool { return s == "running" })

	// Sample reads while the job runs. The enrichment takes on the
	// order of a second; a read blocked behind it would show up as a
	// near-run-length latency, far beyond this bound even under -race.
	const bound = 500 * time.Millisecond
	for i := 0; i < 10; i++ {
		start := time.Now()
		out := getJSON(t, ts.URL+"/v1/health", http.StatusOK)
		if elapsed := time.Since(start); elapsed > bound {
			t.Fatalf("health read #%d took %v during apply job (bound %v)", i, elapsed, bound)
		}
		if out["status"] != "ok" {
			t.Fatalf("health = %v", out)
		}
		start = time.Now()
		resp, err := http.Get(ts.URL + "/v1/search?q=corneal&n=3")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if elapsed := time.Since(start); resp.StatusCode != http.StatusOK || elapsed > bound {
			t.Fatalf("search #%d: status %d in %v during apply job", i, resp.StatusCode, elapsed)
		}
	}

	final := pollJob(t, ts.URL, id, func(s string) bool { return s == "done" || s == "failed" })
	if final["status"] != "done" {
		t.Fatalf("apply job ended %v: %v", final["status"], final["error"])
	}
	// The committed snapshot is now served: the job's new epoch shows
	// in health.
	result := final["result"].(map[string]any)
	health := getJSON(t, ts.URL+"/v1/health", http.StatusOK)
	if health["epoch"].(float64) != result["epoch"].(float64) {
		t.Errorf("health epoch %v, job committed %v", health["epoch"], result["epoch"])
	}
}

// TestJobMetricsExposition: the job subsystem's gauges, counters and
// duration histogram surface in the /v1/metrics exposition.
func TestJobMetricsExposition(t *testing.T) {
	reg := obs.New()
	ts, _ := startedServer(t, Options{Obs: reg})
	id := postJob(t, ts.URL, `{"top":2}`)
	pollJob(t, ts.URL, id, func(s string) bool { return s == "done" })

	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text := string(readAll(t, resp))
	for _, want := range []string{
		`bioenrich_jobs_total{status="queued"} 1`,
		`bioenrich_jobs_total{status="running"} 1`,
		`bioenrich_jobs_total{status="done"} 1`,
		"bioenrich_jobs_queue_depth 0",
		"bioenrich_job_duration_seconds",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition lacks %q", want)
		}
	}
}
