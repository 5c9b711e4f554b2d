package server

import (
	"bytes"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"bioenrich/internal/corpus"
	"bioenrich/internal/obs"
	"bioenrich/internal/ontology"
	"bioenrich/internal/textutil"
)

// obsFixture mirrors testServer's corpus/ontology but wires explicit
// Options.
func obsFixture(t *testing.T, opts Options) *httptest.Server {
	t.Helper()
	o := ontology.New("test-mesh")
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
	add("D1", "eye diseases")
	add("D2", "corneal diseases")
	add("D3", "corneal injury", "corneal damage")
	if err := o.SetParent("D2", "D1"); err != nil {
		t.Fatal(err)
	}
	if err := o.SetParent("D3", "D2"); err != nil {
		t.Fatal(err)
	}
	c := corpus.New(textutil.English)
	c.AddAll([]corpus.Document{
		{ID: "1", Text: "The corneal abrasion showed epithelium scarring near corneal injury tissue with membrane grafts."},
		{ID: "2", Text: "Severe corneal abrasion with epithelium scarring was treated by membrane grafts after corneal injury."},
		{ID: "3", Text: "The corneal injury caused epithelium scarring treated with membrane grafts."},
	})
	c.Build()
	ts := httptest.NewServer(newServer(t, c, o, opts).Handler())
	t.Cleanup(ts.Close)
	return ts
}

func body(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestMetricsEndpoint drives real traffic (including a full /enrich
// run) and asserts the exposition carries per-endpoint HTTP
// histograms and per-step pipeline durations.
func TestMetricsEndpoint(t *testing.T) {
	reg := obs.New()
	ts := obsFixture(t, Options{Obs: reg})

	for i := 0; i < 3; i++ {
		resp, err := http.Get(ts.URL + "/health")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	resp, err := http.Post(ts.URL+"/enrich", "application/json", strings.NewReader(`{"top":3}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /enrich status = %d", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics status = %d", resp.StatusCode)
	}
	expo := body(t, resp)
	for _, want := range []string{
		`bioenrich_http_requests_total{endpoint="GET /health",status="200"} 3`,
		`bioenrich_http_requests_total{endpoint="POST /enrich",status="200"} 1`,
		`bioenrich_http_request_seconds_bucket{endpoint="POST /enrich",le="+Inf"} 1`,
		`bioenrich_http_request_seconds_count{endpoint="GET /health"} 3`,
		"# TYPE bioenrich_http_in_flight gauge",
		`bioenrich_span_seconds_count{span="step1.extract"} 1`,
		`bioenrich_span_seconds_count{span="step2.polysemy"} 1`,
		`bioenrich_span_seconds_count{span="step3.senseind"} 1`,
		`bioenrich_span_seconds_count{span="step4.linkage"} 1`,
		"bioenrich_pool_tasks_queued_total",
		"bioenrich_linkage_cache_misses_total",
	} {
		if !strings.Contains(expo, want) {
			t.Errorf("exposition missing %q\n---\n%s", want, expo)
		}
	}

	// The exposition is deterministically ordered: TYPE headers appear
	// in sorted name order. (Byte-level golden coverage lives in
	// internal/obs; here we pin the property on live server output.)
	var families []string
	for _, line := range strings.Split(expo, "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			families = append(families, strings.Fields(line)[2])
		}
	}
	for i := 1; i < len(families); i++ {
		if families[i-1] >= families[i] {
			t.Errorf("families out of order: %q before %q", families[i-1], families[i])
		}
	}

	// A second scrape shows /metrics instrumenting itself.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if expo2 := body(t, resp); !strings.Contains(expo2,
		`bioenrich_http_requests_total{endpoint="GET /metrics",status="200"} 1`) {
		t.Error("second scrape missing the /metrics self-series")
	}
}

func TestMetricsDisabledByDefault(t *testing.T) {
	ts := obsFixture(t, Options{})
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /metrics without Options.Obs: status %d, want 404", resp.StatusCode)
	}
}

func TestPprofOptIn(t *testing.T) {
	ts := obsFixture(t, Options{Pprof: true})
	resp, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("GET /debug/pprof/ status = %d", resp.StatusCode)
	}

	off := obsFixture(t, Options{})
	resp, err = http.Get(off.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("pprof mounted without opt-in: status %d", resp.StatusCode)
	}
}

// TestIngestBatchMetrics pins the group-commit metric names and their
// values after one 3-document ingest: one group carrying three
// documents. The benchmark derives its documents-per-group figure from
// the two counters by name.
func TestIngestBatchMetrics(t *testing.T) {
	ts := obsFixture(t, Options{Obs: obs.New()})
	resp, err := http.Post(ts.URL+"/v1/documents", "application/json", strings.NewReader(
		`[{"id":"m1","text":"corneal ulcer"},{"id":"m2","text":"retinal detachment"},{"id":"m3","text":"vitreous hemorrhage"}]`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/documents status = %d", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	expo := body(t, resp)
	for _, want := range []string{
		"\nbioenrich_ingest_batches_total 1\n",
		"\nbioenrich_ingest_batched_docs_total 3\n",
		"# TYPE bioenrich_ingest_batch_docs histogram\n",
		"\nbioenrich_ingest_batch_docs_count 1\n",
		"\nbioenrich_ingest_batch_docs_sum 3\n",
	} {
		if !strings.Contains(expo, want) {
			t.Errorf("exposition missing %q\n---\n%s", want, expo)
		}
	}
}

// TestBodyLimit: a POST past Options.MaxBodyBytes is rejected with
// 413 on both bounded endpoints; a small body still works.
func TestBodyLimit(t *testing.T) {
	ts := obsFixture(t, Options{MaxBodyBytes: 128})
	big := `[{"id":"x","text":"` + strings.Repeat("corneal ", 100) + `"}]`
	for _, path := range []string{"/documents", "/enrich"} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(big))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s with %d-byte body: status %d, want 413", path, len(big), resp.StatusCode)
		}
	}
	resp, err := http.Post(ts.URL+"/enrich", "application/json", strings.NewReader(`{"top":2}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("small body rejected: status %d", resp.StatusCode)
	}
}

// TestWriteJSONEncodeFailure: an unencodable value yields a logged
// 500, not a silent empty 200.
func TestWriteJSONEncodeFailure(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]any{"bad": make(chan int)})
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("status = %d, want 500", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "error") {
		t.Errorf("body = %q", rec.Body.String())
	}
}

func TestAccessLog(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&buf, nil))
	ts := obsFixture(t, Options{AccessLog: logger})
	resp, err := http.Get(ts.URL + "/health")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	line := buf.String()
	for _, want := range []string{"method=GET", "path=/health", "status=200"} {
		if !strings.Contains(line, want) {
			t.Errorf("access log %q missing %q", line, want)
		}
	}
}

// TestRouteInventory pins every METHOD pattern the server mounts with
// Options.Obs set, and that a request to each is counted under exactly
// that pattern as its endpoint label — the labels dashboards and the
// benchmark's traced pass select on.
func TestRouteInventory(t *testing.T) {
	inventory := []struct{ pattern, path, body string }{
		{"GET /v1/health", "/v1/health", ""},
		{"GET /v1/ready", "/v1/ready", ""},
		{"GET /v1/version", "/v1/version", ""},
		{"GET /v1/ontology/stats", "/v1/ontology/stats", ""},
		{"GET /v1/ontology/terms/{term}", "/v1/ontology/terms/corneal%20injury", ""},
		{"GET /v1/search", "/v1/search?q=corneal", ""},
		{"GET /v1/extract", "/v1/extract?top=3", ""},
		{"GET /v1/senses", "/v1/senses?term=corneal+abrasion&monosemic=1", ""},
		{"GET /v1/link", "/v1/link?term=corneal+abrasion&top=3", ""},
		{"POST /v1/documents", "/v1/documents", `[{"id":"n1","text":"corneal text"}]`},
		{"POST /v1/enrich", "/v1/enrich", `{"top":2}`},
		{"POST /v1/jobs/enrich", "/v1/jobs/enrich", `{"top":2}`},
		{"GET /v1/jobs", "/v1/jobs", ""},
		{"GET /v1/jobs/{id}", "/v1/jobs/j-none", ""},
		{"DELETE /v1/jobs/{id}", "/v1/jobs/j-none", ""},
		{"GET /v1/relations", "/v1/relations?top=3", ""},
		{"POST /v1/disambiguate", "/v1/disambiguate", `{"term":"corneal abrasion","context":["scarring"]}`},
		{"POST /v1/classify", "/v1/classify", `{"text":"corneal injury"}`},
		{"POST /v1/recommend", "/v1/recommend", `{"text":"corneal injury"}`},
		{"GET /v1/ontologies", "/v1/ontologies", ""},
		{"POST /v1/ontologies", "/v1/ontologies", agroCreateBody},
		{"GET /v1/ontologies/{name}", "/v1/ontologies/default", ""},
		{"GET /v1/ontologies/{name}/search", "/v1/ontologies/agro/search?q=rust", ""},
		{"POST /v1/ontologies/{name}/documents", "/v1/ontologies/agro/documents", `[{"id":"a9","text":"rust"}]`},
		{"POST /v1/ontologies/{name}/classify", "/v1/ontologies/agro/classify", `{"text":"wheat rust"}`},
		{"GET /v1/metrics", "/v1/metrics", ""},
		{"GET /health", "/health", ""},
		{"GET /ontology/stats", "/ontology/stats", ""},
		{"GET /ontology/term", "/ontology/term?t=corneal%20injury", ""},
		{"GET /search", "/search?q=corneal", ""},
		{"GET /extract", "/extract?top=3", ""},
		{"GET /senses", "/senses?term=corneal+abrasion&monosemic=1", ""},
		{"GET /link", "/link?term=corneal+abrasion&top=3", ""},
		{"POST /documents", "/documents", `[{"id":"n2","text":"corneal text"}]`},
		{"POST /enrich", "/enrich", `{"top":2}`},
		{"GET /relations", "/relations?top=3", ""},
		{"POST /disambiguate", "/disambiguate", `{"term":"corneal abrasion","context":["scarring"]}`},
		{"GET /metrics", "/metrics", ""},
	}
	ts, srv := startedServer(t, Options{Obs: obs.New()})

	want := map[string]bool{}
	for _, r := range inventory {
		want[r.pattern] = true
	}
	var mounted []string
	for _, rt := range srv.routes() {
		for _, p := range []string{rt.v1, rt.named, rt.legacy} {
			if p != "" {
				mounted = append(mounted, p)
			}
		}
	}
	if len(want) != 38 || len(mounted) != len(want) {
		t.Fatalf("%d patterns mounted, %d pinned, want 38: %v", len(mounted), len(want), mounted)
	}
	for _, p := range mounted {
		if !want[p] {
			t.Errorf("mounted pattern %q is not in the inventory", p)
		}
	}

	for _, r := range inventory {
		method, _, _ := strings.Cut(r.pattern, " ")
		if resp, b := send(t, method, ts.URL+r.path, r.body); resp.StatusCode >= 500 {
			t.Errorf("%s %s: status %d body %s", method, r.path, resp.StatusCode, b)
		}
	}
	_, expo := send(t, "GET", ts.URL+"/v1/metrics", "")
	labelled := map[string]bool{}
	for _, line := range strings.Split(string(expo), "\n") {
		if rest, ok := strings.CutPrefix(line, `bioenrich_http_requests_total{endpoint="`); ok {
			endpoint, _, _ := strings.Cut(rest, `"`)
			labelled[endpoint] = true
		}
	}
	for p := range want {
		if !labelled[p] {
			t.Errorf("no bioenrich_http_requests_total series with endpoint %q", p)
		}
	}
	for p := range labelled {
		if !want[p] {
			t.Errorf("unexpected endpoint label %q", p)
		}
	}
}
