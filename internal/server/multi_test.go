package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"

	"bioenrich/internal/classify"
	"bioenrich/internal/obs"
)

// postJSON posts body and returns the response; the caller owns Body.
func postJSON(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// agroCreateBody registers a second hosted ontology with its own
// vocabulary and corpus — disjoint from the corneal fixture so
// recommendation has a clear winner per input text.
const agroCreateBody = `{
	"name": "agro",
	"lang": "en",
	"concepts": [
		{"id": "A1", "preferred": "crop diseases"},
		{"id": "A2", "preferred": "wheat rust", "synonyms": ["stem rust"], "parents": ["A1"]},
		{"id": "A3", "preferred": "soil nutrients", "parents": ["A1"]}
	],
	"documents": [
		{"id": "a1", "text": "The wheat rust spread through fields lacking soil nutrients and fungicide treatment."},
		{"id": "a2", "text": "Stem rust resistance depends on soil nutrients and careful fungicide rotation in fields."},
		{"id": "a3", "text": "Crop diseases like wheat rust reduce harvest yield across untreated fields."}
	]
}`

func createAgro(t *testing.T, base string) {
	t.Helper()
	resp := postJSON(t, base+"/v1/ontologies", agroCreateBody)
	b := readAll(t, resp)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: status %d body %s", resp.StatusCode, b)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/ontologies/agro" {
		t.Errorf("Location = %q", loc)
	}
}

func TestXEpochHeaderAndCASPin(t *testing.T) {
	ts, _ := startedServer(t, Options{})

	resp, err := http.Get(ts.URL + "/v1/search?q=corneal")
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, resp)
	got := resp.Header.Get("X-Epoch")
	if got == "" {
		t.Fatal("GET /v1/search: no X-Epoch header")
	}
	epoch, err := strconv.ParseUint(got, 10, 64)
	if err != nil || epoch == 0 {
		t.Fatalf("X-Epoch = %q", got)
	}

	// Pin the epoch the read reported: the apply succeeds while the
	// store hasn't moved.
	resp = postJSON(t, ts.URL+"/v1/enrich", `{"epoch":`+got+`,"top":3}`)
	b := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pinned enrich: status %d body %s", resp.StatusCode, b)
	}

	// Publish a new epoch, then replay the stale pin: 409 conflict.
	resp = postJSON(t, ts.URL+"/v1/documents",
		`[{"id":"n1","text":"New corneal abrasion case with epithelium scarring."}]`)
	readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: status %d", resp.StatusCode)
	}
	resp = postJSON(t, ts.URL+"/v1/enrich", `{"epoch":`+got+`,"top":3}`)
	b = readAll(t, resp)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("stale pin: status %d body %s", resp.StatusCode, b)
	}
	if code := envelopeCode(t, b); code != "conflict" {
		t.Fatalf("stale pin code = %q", code)
	}

	// The fresh read reports the advanced epoch.
	resp, err = http.Get(ts.URL + "/v1/search?q=corneal")
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, resp)
	if next := resp.Header.Get("X-Epoch"); next == got {
		t.Fatalf("X-Epoch still %q after ingest", next)
	}

	// Other reads carry the header too.
	for _, path := range []string{"/v1/ontology/stats", "/v1/ontology/terms/corneal%20injury", "/v1/ontologies"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		readAll(t, resp)
		if resp.Header.Get("X-Epoch") == "" {
			t.Errorf("GET %s: no X-Epoch header", path)
		}
	}
}

func TestClassifyEndpoint(t *testing.T) {
	ts, _ := startedServer(t, Options{})
	resp := postJSON(t, ts.URL+"/v1/classify",
		`{"text":"the corneal injury showed epithelium scarring treated with membrane grafts"}`)
	b := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d body %s", resp.StatusCode, b)
	}
	if resp.Header.Get("X-Epoch") != "1" {
		t.Fatalf("X-Epoch = %q, want 1", resp.Header.Get("X-Epoch"))
	}
	var out struct {
		Ontology string `json:"ontology"`
		Epoch    uint64 `json:"epoch"`
		Lang     string `json:"lang"`
		Concepts []struct {
			ID    string  `json:"id"`
			Score float64 `json:"score"`
		} `json:"concepts"`
	}
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if out.Ontology != "default" || out.Epoch != 1 || out.Lang != "en" {
		t.Fatalf("meta = %+v", out)
	}
	if len(out.Concepts) == 0 {
		t.Fatalf("no concepts: %s", b)
	}
	found := false
	for i, c := range out.Concepts {
		if c.ID == "D3" {
			found = true
		}
		if i > 0 && c.Score > out.Concepts[i-1].Score {
			t.Fatalf("scores not descending: %s", b)
		}
	}
	if !found {
		t.Fatalf("D3 missing from %s", b)
	}
}

// TestClassifyCountsPerOntology: a successful classification counts
// under the ontology label of the entry it classified against, whichever
// route named that entry, and a refused one counts nowhere.
func TestClassifyCountsPerOntology(t *testing.T) {
	reg := obs.New()
	ts, _ := startedServer(t, Options{Obs: reg})
	createAgro(t, ts.URL)
	for _, r := range []struct {
		path, body string
		status     int
	}{
		{"/v1/ontologies/agro/classify", `{"text":"stem rust spread through fields"}`, http.StatusOK},
		{"/v1/ontologies/agro/classify", `{"text":"wheat rust"}`, http.StatusOK},
		{"/v1/ontologies/agro/classify", `{"text":"the of and"}`, http.StatusBadRequest},
		{"/v1/classify", `{"text":"corneal injury"}`, http.StatusOK},
	} {
		resp := postJSON(t, ts.URL+r.path, r.body)
		if b := readAll(t, resp); resp.StatusCode != r.status {
			t.Fatalf("%s %s: status %d, want %d (%s)", r.path, r.body, resp.StatusCode, r.status, b)
		}
	}
	for name, want := range map[string]float64{"agro": 2, "default": 1} {
		if got := reg.Counter(classify.RequestsMetric, "ontology", name).Value(); got != want {
			t.Errorf("%s{ontology=%q} = %v, want %v", classify.RequestsMetric, name, got, want)
		}
	}
}

func TestClassifyErrors(t *testing.T) {
	ts, _ := startedServer(t, Options{})
	cases := []struct {
		body, path string
		status     int
		code       string
	}{
		{`{"text":""}`, "/v1/classify", http.StatusBadRequest, "invalid_argument"},
		{`{"text":"the of and"}`, "/v1/classify", http.StatusBadRequest, "invalid_argument"},
		{`{"text":"corneal injury","ontology":"nope"}`, "/v1/classify", http.StatusNotFound, "not_found"},
		{`{"text":"corneal injury","epoch":99}`, "/v1/classify", http.StatusConflict, "conflict"},
		{`{"text":"corneal injury"}`, "/v1/ontologies/nope/classify", http.StatusNotFound, "not_found"},
	}
	for _, tc := range cases {
		resp := postJSON(t, ts.URL+tc.path, tc.body)
		b := readAll(t, resp)
		if resp.StatusCode != tc.status {
			t.Fatalf("%s %s: status %d, want %d (%s)", tc.path, tc.body, resp.StatusCode, tc.status, b)
		}
		if code := envelopeCode(t, b); code != tc.code {
			t.Fatalf("%s: code %q, want %q", tc.body, code, tc.code)
		}
	}
}

func TestClassifyEmptyMatchIsEmptyArray(t *testing.T) {
	ts, _ := startedServer(t, Options{})
	// Real content words, zero overlap with any concept profile.
	resp := postJSON(t, ts.URL+"/v1/classify", `{"text":"hydroponic tomato greenhouse basil"}`)
	b := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d body %s", resp.StatusCode, b)
	}
	if !strings.Contains(string(b), `"concepts":[]`) {
		t.Fatalf("body = %s, want \"concepts\":[]", b)
	}
}

func TestOntologiesListCreateGet(t *testing.T) {
	ts, _ := startedServer(t, Options{})

	out := getJSON(t, ts.URL+"/v1/ontologies", http.StatusOK)
	if out["default"] != "default" {
		t.Fatalf("default = %v", out["default"])
	}
	createAgro(t, ts.URL)

	resp, err := http.Get(ts.URL + "/v1/ontologies")
	if err != nil {
		t.Fatal(err)
	}
	b := readAll(t, resp)
	var listing struct {
		Ontologies []struct {
			Name     string `json:"name"`
			Default  bool   `json:"default"`
			Epoch    uint64 `json:"epoch"`
			Docs     int    `json:"docs"`
			Concepts int    `json:"concepts"`
		} `json:"ontologies"`
	}
	if err := json.Unmarshal(b, &listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Ontologies) != 2 {
		t.Fatalf("listing = %s", b)
	}
	// Sorted by name: agro before default.
	if listing.Ontologies[0].Name != "agro" || listing.Ontologies[1].Name != "default" {
		t.Fatalf("order = %s", b)
	}
	if !listing.Ontologies[1].Default || listing.Ontologies[0].Default {
		t.Fatalf("default flags = %s", b)
	}
	if listing.Ontologies[0].Concepts != 3 || listing.Ontologies[0].Docs != 3 {
		t.Fatalf("agro stats = %s", b)
	}

	one := getJSON(t, ts.URL+"/v1/ontologies/agro", http.StatusOK)
	if one["name"] != "agro" || one["epoch"] != float64(1) {
		t.Fatalf("GET agro = %v", one)
	}
	getJSON(t, ts.URL+"/v1/ontologies/nope", http.StatusNotFound)

	// Duplicate and invalid registrations.
	resp = postJSON(t, ts.URL+"/v1/ontologies", agroCreateBody)
	b = readAll(t, resp)
	if resp.StatusCode != http.StatusConflict || envelopeCode(t, b) != "conflict" {
		t.Fatalf("duplicate: status %d body %s", resp.StatusCode, b)
	}
	resp = postJSON(t, ts.URL+"/v1/ontologies", `{"name":"bad name","concepts":[{"id":"X","preferred":"x"}]}`)
	b = readAll(t, resp)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid name: status %d body %s", resp.StatusCode, b)
	}
	resp = postJSON(t, ts.URL+"/v1/ontologies", `{"name":"empty"}`)
	b = readAll(t, resp)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("no concepts: status %d body %s", resp.StatusCode, b)
	}
}

func TestOntologiesListNeverNull(t *testing.T) {
	ts, _ := startedServer(t, Options{})
	resp, err := http.Get(ts.URL + "/v1/ontologies")
	if err != nil {
		t.Fatal(err)
	}
	b := readAll(t, resp)
	if !strings.Contains(string(b), `"ontologies":[`) {
		t.Fatalf("body = %s, want an ontologies array", b)
	}
}

func TestOntologyEntryIngestAndSearch(t *testing.T) {
	ts, _ := startedServer(t, Options{})
	createAgro(t, ts.URL)

	resp := postJSON(t, ts.URL+"/v1/ontologies/agro/documents",
		`[{"id":"a4","text":"Fungicide rotation slows wheat rust in humid fields."}]`)
	b := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: status %d body %s", resp.StatusCode, b)
	}
	var ing struct {
		Docs  int    `json:"docs"`
		Epoch uint64 `json:"epoch"`
	}
	if err := json.Unmarshal(b, &ing); err != nil {
		t.Fatal(err)
	}
	if ing.Docs != 4 || ing.Epoch != 2 {
		t.Fatalf("ingest = %+v", ing)
	}

	// Entry-scoped search sees the new document and reports its epoch;
	// the default entry is untouched.
	resp, err := http.Get(ts.URL + "/v1/ontologies/agro/search?q=fungicide")
	if err != nil {
		t.Fatal(err)
	}
	b = readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search: status %d body %s", resp.StatusCode, b)
	}
	if resp.Header.Get("X-Epoch") != "2" {
		t.Fatalf("agro search X-Epoch = %q, want 2", resp.Header.Get("X-Epoch"))
	}
	var hits []map[string]any
	if err := json.Unmarshal(b, &hits); err != nil {
		t.Fatal(err)
	}
	if len(hits) == 0 {
		t.Fatalf("no hits for fungicide: %s", b)
	}
	if h := getJSON(t, ts.URL+"/v1/health", http.StatusOK); h["epoch"] != float64(1) {
		t.Fatalf("default epoch moved: %v", h["epoch"])
	}

	// Classification against the named entry uses its own profiles.
	resp = postJSON(t, ts.URL+"/v1/ontologies/agro/classify",
		`{"text":"stem rust spread through fields lacking fungicide rotation"}`)
	b = readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("classify: status %d body %s", resp.StatusCode, b)
	}
	if !strings.Contains(string(b), `"ontology":"agro"`) {
		t.Fatalf("classify body = %s", b)
	}
}

func TestRecommendRanking(t *testing.T) {
	ts, _ := startedServer(t, Options{})
	createAgro(t, ts.URL)

	resp := postJSON(t, ts.URL+"/v1/recommend",
		`{"text":"wheat rust and stem rust in fields with poor soil nutrients"}`)
	b := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d body %s", resp.StatusCode, b)
	}
	if resp.Header.Get("X-Epoch") == "" {
		t.Fatal("no X-Epoch header")
	}
	var out struct {
		Rankings []struct {
			Ontology string  `json:"ontology"`
			Score    float64 `json:"score"`
			Coverage float64 `json:"coverage"`
		} `json:"rankings"`
	}
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Rankings) != 2 {
		t.Fatalf("rankings = %s", b)
	}
	if out.Rankings[0].Ontology != "agro" {
		t.Fatalf("top = %s, want agro: %s", out.Rankings[0].Ontology, b)
	}
	if out.Rankings[0].Coverage <= out.Rankings[1].Coverage {
		t.Fatalf("coverage order wrong: %s", b)
	}

	// Corneal text flips the ranking.
	resp = postJSON(t, ts.URL+"/v1/recommend", `{"text":"the corneal injury and corneal diseases of the eye"}`)
	b = readAll(t, resp)
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if out.Rankings[0].Ontology != "default" {
		t.Fatalf("top = %s, want default: %s", out.Rankings[0].Ontology, b)
	}

	// Bad input.
	resp = postJSON(t, ts.URL+"/v1/recommend", `{"text":""}`)
	b = readAll(t, resp)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty text: status %d body %s", resp.StatusCode, b)
	}
}

// TestRecommendRoutesEnrichment is the e2e routing check: with two
// hosted ontologies, a recommend-with-enrich for agro vocabulary must
// submit the enrichment job against the agro entry, not the default.
func TestRecommendRoutesEnrichment(t *testing.T) {
	ts, srv := startedServer(t, Options{})
	createAgro(t, ts.URL)

	resp := postJSON(t, ts.URL+"/v1/recommend",
		`{"text":"wheat rust and stem rust in fields with poor soil nutrients","enrich":true,"enrich_top":3}`)
	b := readAll(t, resp)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d body %s", resp.StatusCode, b)
	}
	var out struct {
		Ontology string `json:"ontology"`
		Job      struct {
			ID    string `json:"id"`
			Epoch uint64 `json:"epoch"`
		} `json:"job"`
		Rankings []struct {
			Ontology string `json:"ontology"`
		} `json:"rankings"`
	}
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if out.Ontology != "agro" || len(out.Rankings) == 0 || out.Rankings[0].Ontology != "agro" {
		t.Fatalf("routing = %s", b)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/jobs/"+out.Job.ID {
		t.Fatalf("Location = %q", loc)
	}

	done := pollJob(t, ts.URL, out.Job.ID, func(s string) bool { return s == "done" || s == "failed" })
	if done["status"] != "done" {
		t.Fatalf("job = %v", done)
	}
	result, _ := done["result"].(map[string]any)
	if result["ontology"] != "agro" {
		t.Fatalf("job ran against %v, want agro: %v", result["ontology"], done)
	}

	// The job really ran on the agro snapshot: its pinned epoch matches
	// the agro entry, whose store is distinct from the default.
	entry, okE := srv.reg.Get("agro")
	if !okE {
		t.Fatal("agro entry missing")
	}
	if out.Job.Epoch != entry.Snapshot().Epoch {
		t.Fatalf("job epoch %d, agro at %d", out.Job.Epoch, entry.Snapshot().Epoch)
	}
}

// TestRecommendEnrichPinsRankedSnapshot: the job a recommend submits
// runs on the snapshot the ranking scored, even while the winning
// entry keeps publishing — job epoch, rankings[0].epoch and X-Epoch
// agree on every response.
func TestRecommendEnrichPinsRankedSnapshot(t *testing.T) {
	const rounds = 200
	ts, _ := startedServer(t, Options{JobQueue: rounds})
	createAgro(t, ts.URL)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			resp := postJSON(t, ts.URL+"/v1/ontologies/agro/documents",
				fmt.Sprintf(`[{"id":"w%d","text":"Wheat rust spread through more fields."}]`, i))
			if b := readAll(t, resp); resp.StatusCode != http.StatusOK {
				t.Errorf("ingest %d: status %d body %s", i, resp.StatusCode, b)
				return
			}
		}
	}()
	defer wg.Wait()
	defer close(stop)

	for i := 0; i < rounds; i++ {
		resp := postJSON(t, ts.URL+"/v1/recommend",
			`{"text":"wheat rust and stem rust in fields with poor soil nutrients","enrich":true,"enrich_top":1}`)
		b := readAll(t, resp)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("round %d: status %d body %s", i, resp.StatusCode, b)
		}
		var out struct {
			Job struct {
				Epoch uint64 `json:"epoch"`
			} `json:"job"`
			Rankings []struct {
				Ontology string `json:"ontology"`
				Epoch    uint64 `json:"epoch"`
			} `json:"rankings"`
		}
		if err := json.Unmarshal(b, &out); err != nil {
			t.Fatal(err)
		}
		header := strconv.FormatUint(out.Job.Epoch, 10)
		if out.Rankings[0].Ontology != "agro" || out.Rankings[0].Epoch != out.Job.Epoch || resp.Header.Get("X-Epoch") != header {
			t.Fatalf("round %d: job epoch %d, rankings[0] %+v, X-Epoch %q", i, out.Job.Epoch, out.Rankings[0], resp.Header.Get("X-Epoch"))
		}
	}
}
