package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"bioenrich/internal/state"
)

// postRaw POSTs a raw body and returns status + decoded envelope (nil
// when the body is not an object).
func postRaw(t *testing.T, url, body string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v map[string]any
	_ = json.NewDecoder(resp.Body).Decode(&v)
	return resp.StatusCode, v
}

func mapCode(t *testing.T, v map[string]any) string {
	t.Helper()
	e, ok := v["error"].(map[string]any)
	if !ok {
		t.Fatalf("no error envelope in %v", v)
	}
	code, _ := e["code"].(string)
	return code
}

// TestStrictDecodeRejectsTrailingData: every body-reading /v1 endpoint
// decodes strictly — a valid JSON value followed by trailing garbage
// (or a second value) is 400 invalid_argument, not a half-honored
// request. Before, json.Decoder stopped at the first value and the
// trailing bytes were silently ignored.
func TestStrictDecodeRejectsTrailingData(t *testing.T) {
	ts := testServer(t)
	cases := []struct {
		path string
		body string
	}{
		{"/v1/documents", `[{"id":"x","text":"corneal"}] trailing`},
		{"/v1/documents", `[{"id":"x","text":"corneal"}][]`},
		{"/v1/classify", `{"text":"corneal abrasion"}{"text":"again"}`},
		{"/v1/recommend", `{"text":"corneal abrasion"}garbage`},
		{"/v1/jobs/enrich", `{"top":3}{}`},
		{"/v1/enrich", `{"top":3}null`},
		{"/v1/disambiguate", `{"term":"corneal","context":["injury"]}, 42`},
		{"/v1/ontologies", `{"name":"x","concepts":[{"id":"C1","preferred":"p"}]}[]`},
	}
	for _, tc := range cases {
		status, v := postRaw(t, ts.URL+tc.path, tc.body)
		if status != http.StatusBadRequest {
			t.Errorf("POST %s with trailing data: status %d, want 400", tc.path, status)
			continue
		}
		if code := mapCode(t, v); code != "invalid_argument" {
			t.Errorf("POST %s: code %q, want invalid_argument", tc.path, code)
		}
	}

	// The same bodies without the trailing bytes are accepted — strict
	// decoding only rejects what follows the value, not the value.
	if status, _ := postRaw(t, ts.URL+"/v1/documents", `[{"id":"x","text":"corneal"}]`); status != http.StatusOK {
		t.Errorf("clean documents body: status %d, want 200", status)
	}
	if status, _ := postRaw(t, ts.URL+"/v1/classify", `{"text":"corneal abrasion"}`); status != http.StatusOK {
		t.Errorf("clean classify body: status %d, want 200", status)
	}
}

// TestIngestRejectsEmptyDocuments: a batch containing a document with
// neither title nor text is rejected up front with 400, naming the
// offending index and id, and nothing reaches the write path — epoch
// and corpus stats are unchanged (the regression the validation is
// for: empty documents used to be indexed as empty token streams,
// silently skewing avg-doc-length and DF statistics).
func TestIngestRejectsEmptyDocuments(t *testing.T) {
	ts := testServer(t)
	before := getJSON(t, ts.URL+"/v1/health", http.StatusOK)

	for _, body := range []string{
		`[{"id":"e1"}]`,                                        // no title, no text
		`[{"id":"e1","title":"  ","text":"\t"}]`,               // whitespace only
		`[{"id":"ok","text":"corneal"},{"id":"e2","text":""}]`, // one bad doc poisons the batch
	} {
		status, v := postRaw(t, ts.URL+"/v1/documents", body)
		if status != http.StatusBadRequest {
			t.Fatalf("POST %s: status %d, want 400", body, status)
		}
		if code := mapCode(t, v); code != "invalid_argument" {
			t.Errorf("code %q, want invalid_argument", code)
		}
	}
	// Error message names the offending document.
	_, v := postRaw(t, ts.URL+"/v1/documents", `[{"id":"ok","text":"corneal"},{"id":"e2","text":""}]`)
	if msg, _ := v["error"].(map[string]any)["message"].(string); !strings.Contains(msg, "1") || !strings.Contains(msg, "e2") {
		t.Errorf("error message %q does not name document 1 (id e2)", msg)
	}

	after := getJSON(t, ts.URL+"/v1/health", http.StatusOK)
	if before["epoch"] != after["epoch"] || before["docs"] != after["docs"] {
		t.Errorf("rejected batches changed state: %v -> %v", before, after)
	}
}

// flakyDurable fails every publish until healed — a disk running out
// of space, then freed.
type flakyDurable struct {
	mu   sync.Mutex
	fail bool
}

func (f *flakyDurable) BeforePublish(*state.Snapshot, *state.Delta) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.fail {
		return errors.New("no space left on device")
	}
	return nil
}

func (f *flakyDurable) heal() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.fail = false
}

// TestIngestDurabilityFailureIs503: a durability rejection is a
// retryable server condition — 503 with code "unavailable", not a 500
// — and nothing publishes. After the backend heals, the same request
// succeeds, which is what the 503 contract promises clients.
func TestIngestDurabilityFailureIs503(t *testing.T) {
	c, o := fixtureData(t)
	d := &flakyDurable{fail: true}
	srv := newServer(t, c, o, Options{})
	srv.reg.Default().Store.SetDurable(d)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	before := getJSON(t, ts.URL+"/v1/health", http.StatusOK)
	status, v := postRaw(t, ts.URL+"/v1/documents", `[{"id":"d1","text":"corneal lesion"}]`)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("ingest with failing durability: status %d, want 503", status)
	}
	if code := mapCode(t, v); code != "unavailable" {
		t.Errorf("code %q, want unavailable", code)
	}
	mid := getJSON(t, ts.URL+"/v1/health", http.StatusOK)
	if before["epoch"] != mid["epoch"] {
		t.Errorf("failed ingest advanced epoch: %v -> %v", before["epoch"], mid["epoch"])
	}

	d.heal()
	if status, _ := postRaw(t, ts.URL+"/v1/documents", `[{"id":"d1","text":"corneal lesion"}]`); status != http.StatusOK {
		t.Errorf("ingest after heal: status %d, want 200", status)
	}
}

// TestConcurrentIngestThroughHTTP: N concurrent POST /v1/documents
// all succeed, the corpus gains exactly N documents, and grouping
// means the epoch advanced at most N times (usually far fewer). Run
// with -race this is the end-to-end data-race check on the
// handler → batcher → store path.
func TestConcurrentIngestThroughHTTP(t *testing.T) {
	ts := testServer(t)
	before := getJSON(t, ts.URL+"/v1/health", http.StatusOK)

	const n = 24
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`[{"id":"c%d","text":"concurrent corneal doc %d"}]`, i, i)
			status, v := postRaw(t, ts.URL+"/v1/documents", body)
			if status != http.StatusOK {
				t.Errorf("writer %d: status %d (%v)", i, status, v)
			}
		}(i)
	}
	wg.Wait()

	after := getJSON(t, ts.URL+"/v1/health", http.StatusOK)
	gained := int(after["docs"].(float64)) - int(before["docs"].(float64))
	if gained != n {
		t.Errorf("corpus gained %d docs, want %d", gained, n)
	}
	epochs := int(after["epoch"].(float64)) - int(before["epoch"].(float64))
	if epochs < 1 || epochs > n {
		t.Errorf("epoch advanced %d times for %d writers", epochs, n)
	}
}
