package server

// Tests for the /v1 surface polish shipped with the load harness:
// readiness split from liveness, build identity at /v1/version,
// deterministic job-list pagination, and the Sunset header on legacy
// aliases.

import (
	"encoding/base64"
	"net/http"
	"strings"
	"testing"
)

// TestReadyLifecycle: /v1/ready answers 200 with the snapshot epoch
// and registry size as soon as the server serves.
func TestReadyLifecycle(t *testing.T) {
	ts := testServer(t)
	out := getJSON(t, ts.URL+"/v1/ready", http.StatusOK)
	if out["status"] != "ready" {
		t.Errorf("ready = %v", out)
	}
	if out["epoch"].(float64) < 1 {
		t.Errorf("ready epoch = %v, want >= 1", out["epoch"])
	}
	if out["entries"].(float64) != 1 {
		t.Errorf("ready entries = %v, want 1", out["entries"])
	}
}

// TestVersion: /v1/version reports the binary's build identity. Under
// `go test` there is no VCS stamp, but module path and toolchain are
// always present.
func TestVersion(t *testing.T) {
	ts := testServer(t)
	out := getJSON(t, ts.URL+"/v1/version", http.StatusOK)
	if out["module"] != "bioenrich" {
		t.Errorf("module = %v", out["module"])
	}
	if v, _ := out["go_version"].(string); !strings.HasPrefix(v, "go") {
		t.Errorf("go_version = %v", out["go_version"])
	}
	if v, _ := out["version"].(string); v == "" {
		t.Errorf("version is empty")
	}
}

// listJobs fetches one page and returns the IDs plus the next token.
func listJobs(t *testing.T, base, query string) ([]string, string) {
	t.Helper()
	out := getJSON(t, base+"/v1/jobs"+query, http.StatusOK)
	raw, ok := out["jobs"].([]any)
	if !ok {
		t.Fatalf("jobs list = %v", out)
	}
	ids := make([]string, len(raw))
	for i, v := range raw {
		ids[i] = v.(map[string]any)["id"].(string)
	}
	tok, _ := out["next_page_token"].(string)
	return ids, tok
}

// TestJobListPagination: pages are disjoint, ordered by ID, sized by
// limit, and the envelope only carries next_page_token while more
// remain.
func TestJobListPagination(t *testing.T) {
	ts, _ := startedServer(t, Options{JobQueue: 16})
	var want []string
	for i := 0; i < 5; i++ {
		want = append(want, postJob(t, ts.URL, `{"top":2}`))
	}

	var got []string
	token := ""
	pages := 0
	for {
		query := "?limit=2"
		if token != "" {
			query += "&page_token=" + token
		}
		ids, next := listJobs(t, ts.URL, query)
		if len(ids) > 2 {
			t.Fatalf("page of %d ids, want <= 2", len(ids))
		}
		got = append(got, ids...)
		pages++
		if next == "" {
			break
		}
		token = next
		if pages > 10 {
			t.Fatal("pagination never terminated")
		}
	}
	if pages != 3 {
		t.Errorf("pages = %d, want 3", pages)
	}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("paged ids = %v, want %v (submission order)", got, want)
	}

	// A full listing and a status filter agree with the paged view.
	all, tok := listJobs(t, ts.URL, "")
	if len(all) != 5 || tok != "" {
		t.Errorf("unpaged list = %d ids, token %q", len(all), tok)
	}
	final := pollJob(t, ts.URL, want[4], func(s string) bool { return s == "done" })
	if final["status"] != "done" {
		t.Fatalf("job %s = %v", want[4], final)
	}
	if ids, _ := listJobs(t, ts.URL, "?status=queued&limit=1000"); len(ids) >= 5 {
		t.Errorf("status=queued after a job finished: %d ids", len(ids))
	}
}

// TestJobListPaginationErrors: malformed limit/status/page_token are
// all 400 invalid_argument, per the envelope contract.
func TestJobListPaginationErrors(t *testing.T) {
	ts, _ := startedServer(t, Options{})
	bogusToken := base64.RawURLEncoding.EncodeToString([]byte("not-a-cursor"))
	for _, query := range []string{
		"?limit=0",
		"?limit=-1",
		"?limit=1001",
		"?limit=abc",
		"?status=bogus",
		"?page_token=!!!",
		"?page_token=" + bogusToken,
		// A well-formed token whose cursor is not a job ID.
		"?page_token=" + base64.RawURLEncoding.EncodeToString([]byte(jobPageTokenPrefix+"not-a-job")),
	} {
		resp, err := http.Get(ts.URL + "/v1/jobs" + query)
		if err != nil {
			t.Fatal(err)
		}
		b := readAll(t, resp)
		if resp.StatusCode != http.StatusBadRequest || envelopeCode(t, b) != "invalid_argument" {
			t.Errorf("%s: status %d body %s, want 400/invalid_argument", query, resp.StatusCode, b)
		}
	}
}

// TestJobListPageTokenStableAcrossEpoch: a page token held across an
// ingest (which swaps the snapshot epoch) still resumes exactly after
// the last seen job — cursors live in job-ID space, not in any
// snapshot.
func TestJobListPageTokenStableAcrossEpoch(t *testing.T) {
	ts, _ := startedServer(t, Options{JobQueue: 16})
	var want []string
	for i := 0; i < 3; i++ {
		want = append(want, postJob(t, ts.URL, `{"top":2}`))
	}
	first, token := listJobs(t, ts.URL, "?limit=2")
	if len(first) != 2 || token == "" {
		t.Fatalf("page 1 = %v token %q", first, token)
	}

	before := getJSON(t, ts.URL+"/v1/health", http.StatusOK)["epoch"].(float64)
	if status, v := postRaw(t, ts.URL+"/v1/documents", `[{"id":"swap","text":"corneal epoch swap"}]`); status != http.StatusOK {
		t.Fatalf("ingest: status %d body %v", status, v)
	}
	after := getJSON(t, ts.URL+"/v1/health", http.StatusOK)["epoch"].(float64)
	if after <= before {
		t.Fatalf("epoch did not advance: %v -> %v", before, after)
	}

	rest, next := listJobs(t, ts.URL, "?limit=2&page_token="+token)
	if next != "" {
		t.Errorf("unexpected further page: %q", next)
	}
	got := append(append([]string{}, first...), rest...)
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("ids across epoch swap = %v, want %v", got, want)
	}
}

// TestLegacySunsetHeader: unversioned aliases now announce their
// removal date alongside the Deprecation nudge.
func TestLegacySunsetHeader(t *testing.T) {
	ts := testServer(t)
	resp, err := http.Get(ts.URL + "/health")
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, resp)
	if resp.Header.Get("Deprecation") != "true" {
		t.Errorf("Deprecation = %q", resp.Header.Get("Deprecation"))
	}
	if resp.Header.Get("Sunset") != LegacySunset {
		t.Errorf("Sunset = %q, want %q", resp.Header.Get("Sunset"), LegacySunset)
	}
	// The versioned twin carries neither.
	resp2, err := http.Get(ts.URL + "/v1/health")
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, resp2)
	if resp2.Header.Get("Sunset") != "" || resp2.Header.Get("Deprecation") != "" {
		t.Errorf("versioned route carries deprecation headers")
	}
}
