package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"bioenrich/internal/ontology"
	"bioenrich/internal/synth"
)

// slowServer builds a server over a synthetic mesh big enough that a
// full /enrich run outlasts the tests' 150 ms wait twice over — long
// enough for a concurrent request or a mid-run cancellation to land
// while the pipeline is demonstrably still working.
func slowServer(t *testing.T, opts Options) (*httptest.Server, *ontology.Ontology) {
	t.Helper()
	mopts := synth.DefaultMeshOptions()
	mopts.Branches = 3
	mopts.Depth = 3
	copts := synth.DefaultCorpusOptions()
	copts.DocsPerConcept = 4
	mesh := synth.GenerateMesh(mopts)
	c := synth.GenerateMeshCorpus(mesh, copts)
	ts := httptest.NewServer(newServer(t, c, mesh.Ontology, opts).Handler())
	t.Cleanup(ts.Close)
	return ts, mesh.Ontology
}

// TestEnrichDeadlineExceeded: Options.EnrichTimeout bounds the run and
// maps context.DeadlineExceeded to 504; with "apply":true the expired
// run must mutate nothing.
func TestEnrichDeadlineExceeded(t *testing.T) {
	ts := obsFixture(t, Options{EnrichTimeout: time.Nanosecond})
	resp, err := http.Post(ts.URL+"/enrich", "application/json",
		strings.NewReader(`{"top":5,"apply":true}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", resp.StatusCode)
	}
	// The server keeps serving, and the ontology did not grow (the
	// obsFixture ontology has 3 concepts / 4 terms).
	stats := getJSON(t, ts.URL+"/ontology/stats", http.StatusOK)
	if stats["terms"].(float64) != 4 {
		t.Errorf("terms = %v after expired apply, want 4", stats["terms"])
	}
}

// TestEnrichParamValidation: malformed and negative numeric inputs are
// client errors, not silent fallbacks to defaults.
func TestEnrichParamValidation(t *testing.T) {
	ts := testServer(t)
	getJSON(t, ts.URL+"/search?q=corneal&n=abc", http.StatusBadRequest)
	getJSON(t, ts.URL+"/extract?top=-5", http.StatusBadRequest)
	getJSON(t, ts.URL+"/link?term=corneal+abrasion&top=2x", http.StatusBadRequest)
	getJSON(t, ts.URL+"/relations?top=-1", http.StatusBadRequest)
	for _, body := range []string{`{"workers":-3}`, `{"top":-1}`} {
		resp, err := http.Post(ts.URL+"/enrich", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("enrich body %s: status %d, want 400", body, resp.StatusCode)
		}
	}
}

// TestEnrichChunkedEmptyBody: a chunked request (ContentLength -1)
// with an empty body runs with defaults instead of 400ing on io.EOF.
func TestEnrichChunkedEmptyBody(t *testing.T) {
	ts := testServer(t)
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/enrich", io.NopCloser(strings.NewReader("")))
	if err != nil {
		t.Fatal(err)
	}
	req.ContentLength = -1 // forces Transfer-Encoding: chunked
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200 (empty chunked body = defaults)", resp.StatusCode)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out["report"] == nil {
		t.Error("missing report")
	}
}

// TestReadOnlyEnrichOverlapsSearch is the lock-scope regression: a
// read-only enrich holds only the read lock, so a /search issued while
// it runs completes long before the enrich does — under the old write
// lock the search would block for the whole run.
func TestReadOnlyEnrichOverlapsSearch(t *testing.T) {
	ts, _ := slowServer(t, Options{})
	done := make(chan error, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/enrich", "application/json",
			strings.NewReader(`{"top":10,"workers":2}`))
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("enrich status %d", resp.StatusCode)
			}
		}
		done <- err
	}()
	time.Sleep(150 * time.Millisecond) // let the run take its lock

	resp, err := http.Get(ts.URL + "/search?q=term&n=3")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search status = %d", resp.StatusCode)
	}
	select {
	case err := <-done:
		// The enrich finished before the search did — the fixture was
		// too fast to prove the overlap; don't claim a pass on it.
		if err != nil {
			t.Fatal(err)
		}
		t.Skip("enrich completed before search; overlap not observable")
	default:
		// Search returned while the enrich was still running: the read
		// locks overlapped.
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestCancelledEnrichReleasesLock is the acceptance scenario: a client
// abandons a POST /enrich with "apply":true mid-run. The run must stop
// within one candidate's work, release the write lock (a follow-up
// /search succeeds promptly rather than waiting out the full run), and
// apply nothing.
func TestCancelledEnrichReleasesLock(t *testing.T) {
	ts, ont := slowServer(t, Options{})
	before := ont.NumTerms()

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/enrich",
		strings.NewReader(`{"top":10,"workers":2,"apply":true}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	time.Sleep(150 * time.Millisecond) // the run is now holding the write lock
	cancel()                           // client disconnects
	if err := <-errc; err == nil {
		t.Skip("enrich completed before the cancel landed; nothing to prove")
	}

	// The write lock must come free within roughly one candidate's
	// work, far sooner than the run's natural multi-second duration.
	start := time.Now()
	resp, err := http.Get(ts.URL + "/search?q=term&n=3")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search after cancel: status %d", resp.StatusCode)
	}
	if waited := time.Since(start); waited > 3*time.Second {
		t.Errorf("search blocked %s after cancel — write lock not released promptly", waited)
	}
	if got := ont.NumTerms(); got != before {
		t.Errorf("cancelled apply mutated the ontology: %d -> %d terms", before, got)
	}
}

// TestPreCancelledStepRequests: a step I, III or IV request, or a
// relation extraction, whose client has already gone answers 499
// "cancelled" instead of running the step, also once an uncancelled
// /v1/extract has left the entry's corpus its step I table.
func TestPreCancelledStepRequests(t *testing.T) {
	c, o := fixtureData(t)
	h := newServer(t, c, o, Options{}).Handler()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		method, target, body string
		warm                 bool // send the request uncancelled first
	}{
		{http.MethodGet, "/v1/extract?top=3", "", false},
		{http.MethodGet, "/v1/extract?top=3", "", true},
		{http.MethodGet, "/v1/relations?top=3", "", false},
		{http.MethodGet, "/v1/link?term=corneal+abrasion&top=3", "", false},
		{http.MethodGet, "/v1/senses?term=corneal+abrasion", "", false},
		{http.MethodPost, "/v1/disambiguate", `{"term":"corneal abrasion","context":["scarring"]}`, false},
	} {
		if tc.warm {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(tc.method, tc.target, strings.NewReader(tc.body)))
			if rec.Code != http.StatusOK {
				t.Fatalf("warming %s %s: status %d", tc.method, tc.target, rec.Code)
			}
		}
		req := httptest.NewRequest(tc.method, tc.target, strings.NewReader(tc.body)).WithContext(ctx)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		var env errorEnvelope
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
			t.Fatalf("%s %s: decode %q: %v", tc.method, tc.target, rec.Body, err)
		}
		if rec.Code != statusClientClosedRequest || env.Error.Code != "cancelled" {
			t.Errorf("%s %s (warm %v): status %d code %q, want 499 cancelled", tc.method, tc.target, tc.warm, rec.Code, env.Error.Code)
		}
	}
}
