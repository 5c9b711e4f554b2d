package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"bioenrich/internal/corpus"
	"bioenrich/internal/ontology"
	"bioenrich/internal/registry"
	"bioenrich/internal/storage"
	"bioenrich/internal/textutil"
)

// fixtureData builds the small corneal corpus + mesh ontology the
// handler tests share.
func fixtureData(t *testing.T) (*corpus.Corpus, *ontology.Ontology) {
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
		{ID: "3", Text: "Corneal diseases include epithelium scarring conditions of the eye surface."},
		{ID: "4", Text: "The corneal injury caused epithelium scarring treated with membrane grafts."},
	})
	c.Build()
	return c, o
}

// newServer builds a server over a fresh in-memory registry whose
// default entry serves (c, o) — the one way tests construct a
// registry. Its jobs and job runners die with the test.
func newServer(t *testing.T, c *corpus.Corpus, o *ontology.Ontology, opts Options) *Server {
	t.Helper()
	reg, err := registry.New(context.Background(), DefaultOntology, func() (*corpus.Corpus, *ontology.Ontology, error) {
		return c, o, nil
	}, storage.DiskOptions{Obs: opts.Obs})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	srv := New(ctx, reg, opts)
	t.Cleanup(func() {
		cancel()
		srv.Wait()
	})
	return srv
}

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	c, o := fixtureData(t)
	ts := httptest.NewServer(newServer(t, c, o, Options{}).Handler())
	t.Cleanup(ts.Close)
	return ts
}

func getJSON(t *testing.T, url string, wantStatus int) map[string]any {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s: status %d, want %d", url, resp.StatusCode, wantStatus)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
	return out
}

func TestHealth(t *testing.T) {
	ts := testServer(t)
	out := getJSON(t, ts.URL+"/health", http.StatusOK)
	if out["status"] != "ok" || out["docs"].(float64) != 4 {
		t.Errorf("health = %v", out)
	}
}

func TestOntologyStats(t *testing.T) {
	ts := testServer(t)
	out := getJSON(t, ts.URL+"/ontology/stats", http.StatusOK)
	if out["concepts"].(float64) != 3 {
		t.Errorf("stats = %v", out)
	}
}

func TestOntologyTerm(t *testing.T) {
	ts := testServer(t)
	out := getJSON(t, ts.URL+"/ontology/term?t=corneal+damage", http.StatusOK)
	concepts := out["concepts"].([]any)
	if len(concepts) != 1 {
		t.Fatalf("concepts = %v", concepts)
	}
	if concepts[0].(map[string]any)["id"] != "D3" {
		t.Errorf("wrong concept: %v", concepts[0])
	}
	getJSON(t, ts.URL+"/ontology/term?t=nonexistent", http.StatusNotFound)
	getJSON(t, ts.URL+"/ontology/term", http.StatusBadRequest)
}

func TestSearch(t *testing.T) {
	ts := testServer(t)
	resp, err := http.Get(ts.URL + "/search?q=corneal+abrasion&n=2")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hits []map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&hits); err != nil {
		t.Fatal(err)
	}
	if len(hits) == 0 || len(hits) > 2 {
		t.Errorf("hits = %v", hits)
	}
	getJSON(t, ts.URL+"/search", http.StatusBadRequest)
}

func TestExtract(t *testing.T) {
	ts := testServer(t)
	resp, err := http.Get(ts.URL + "/extract?measure=c-value&top=5")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ranked []map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&ranked); err != nil {
		t.Fatal(err)
	}
	if len(ranked) == 0 || len(ranked) > 5 {
		t.Errorf("ranked = %d entries", len(ranked))
	}
	getJSON(t, ts.URL+"/extract?measure=bogus", http.StatusBadRequest)
}

func TestSenses(t *testing.T) {
	ts := testServer(t)
	out := getJSON(t, ts.URL+"/senses?term=corneal+abrasion&monosemic=1", http.StatusOK)
	if out["K"].(float64) != 1 {
		t.Errorf("senses = %v", out)
	}
	getJSON(t, ts.URL+"/senses", http.StatusBadRequest)
	getJSON(t, ts.URL+"/senses?term=unseen+term", http.StatusBadRequest)
}

func TestLink(t *testing.T) {
	ts := testServer(t)
	resp, err := http.Get(ts.URL + "/link?term=corneal+abrasion&top=5")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var props []map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&props); err != nil {
		t.Fatal(err)
	}
	if len(props) == 0 {
		t.Error("no proposals")
	}
	getJSON(t, ts.URL+"/link", http.StatusBadRequest)
}

func TestAddDocuments(t *testing.T) {
	ts := testServer(t)
	body := `[{"id":"new1","title":"","text":"Fresh corneal abrasion case with scarring."}]`
	resp, err := http.Post(ts.URL+"/documents", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]int
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out["docs"] != 5 {
		t.Errorf("docs = %d, want 5", out["docs"])
	}
	// Bad bodies.
	for _, bad := range []string{"", "not json", "[]"} {
		resp, err := http.Post(ts.URL+"/documents", "application/json", strings.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %d", bad, resp.StatusCode)
		}
	}
}

func TestEnrichAndApply(t *testing.T) {
	ts := testServer(t)
	resp, err := http.Post(ts.URL+"/enrich", "application/json",
		strings.NewReader(`{"top":5,"apply":true}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out["report"] == nil {
		t.Error("missing report")
	}
	if _, ok := out["applied"]; !ok {
		t.Error("missing applied list")
	}
	// The ontology grew: stats reflect the enrichment.
	stats := getJSON(t, ts.URL+"/ontology/stats", http.StatusOK)
	if stats["terms"].(float64) <= 4 {
		t.Errorf("terms after enrich = %v", stats["terms"])
	}
}

// TestConcurrentMixedTraffic hammers the server with interleaved
// reads (GET /link), corpus mutations (POST /documents) and full
// enrichment runs with apply (POST /enrich) — the multi-user service
// shape. Run under -race: it exercises the enricher's worker pool and
// the linker's context-vector cache behind the server's RWMutex, and
// proves mutating and reading handlers cannot interleave unsafely.
func TestConcurrentMixedTraffic(t *testing.T) {
	ts := testServer(t)
	var wg sync.WaitGroup
	errs := make(chan error, 64)

	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				resp, err := http.Get(ts.URL + "/link?term=corneal+abrasion&top=5")
				if err != nil {
					errs <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("GET /link: status %d", resp.StatusCode)
					return
				}
			}
		}()
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				body := fmt.Sprintf(
					`[{"id":"c%d-%d","text":"Another corneal abrasion with epithelium scarring and membrane grafts."}]`, g, i)
				resp, err := http.Post(ts.URL+"/documents", "application/json", strings.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("POST /documents: status %d", resp.StatusCode)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			resp, err := http.Post(ts.URL+"/enrich", "application/json",
				strings.NewReader(`{"top":3,"apply":true,"workers":4}`))
			if err != nil {
				errs <- err
				return
			}
			resp.Body.Close()
			// Under snapshot isolation an apply that races a document
			// commit legitimately loses the epoch check (409); both
			// outcomes leave the store coherent.
			if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusConflict {
				errs <- fmt.Errorf("POST /enrich: status %d", resp.StatusCode)
				return
			}
		}
	}()

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// The server is still coherent after the storm.
	out := getJSON(t, ts.URL+"/health", http.StatusOK)
	if out["status"] != "ok" {
		t.Errorf("health after concurrent traffic = %v", out)
	}
	if out["docs"].(float64) != 14 { // 4 fixture + 10 posted
		t.Errorf("docs = %v, want 14", out["docs"])
	}
}

func TestMethodNotAllowed(t *testing.T) {
	ts := testServer(t)
	resp, err := http.Post(ts.URL+"/health", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /health status = %d", resp.StatusCode)
	}
}

func TestRelationsEndpoint(t *testing.T) {
	ts := testServer(t)
	resp, err := http.Get(ts.URL + "/relations?top=5")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var rels []map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&rels); err != nil {
		t.Fatal(err)
	}
	// The fixture has a "caused" sentence between ontology terms; any
	// result (including empty) must decode as a list.
	_ = rels
}

func TestDisambiguateEndpoint(t *testing.T) {
	ts := testServer(t)
	body := `{"term":"corneal abrasion","context":["epithelium","scarring","grafts"]}`
	resp, err := http.Post(ts.URL+"/disambiguate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out["senses"].(float64) < 1 {
		t.Errorf("senses = %v", out["senses"])
	}
	// Bad requests.
	for _, bad := range []string{"", `{}`, `{"term":"x"}`} {
		resp, err := http.Post(ts.URL+"/disambiguate", "application/json", strings.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %d", bad, resp.StatusCode)
		}
	}
}
