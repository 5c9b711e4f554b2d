package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"bioenrich/internal/corpus"
	"bioenrich/internal/ontology"
	"bioenrich/internal/textutil"
)

// TestRestartAfterSIGKILL is the end-to-end durability contract: serve,
// ingest, SIGKILL (no drain, no shutdown checkpoint), restart from the
// data directory alone, and verify the recovered process reports the
// exact pre-kill epoch and document count. An entry created at runtime
// must come back the same way, untouched by a refused duplicate
// create.
func TestRestartAfterSIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binary")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not on PATH")
	}

	work := t.TempDir()
	bin := filepath.Join(work, "serve-under-test")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Env = os.Environ()
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	// Seed files for the cold start.
	c := corpus.New(textutil.English)
	c.Add(corpus.Document{ID: "seed-1", Text: "Corneal abrasion with scarring."})
	c.Build()
	corpusPath := filepath.Join(work, "corpus.json")
	if err := c.Save(corpusPath); err != nil {
		t.Fatal(err)
	}
	o := ontology.New("mesh")
	if _, err := o.AddConcept("D1", "eye diseases"); err != nil {
		t.Fatal(err)
	}
	ontPath := filepath.Join(work, "ontology.json")
	if err := o.Save(ontPath); err != nil {
		t.Fatal(err)
	}
	dataDir := filepath.Join(work, "state")

	// First life: cold start with seeds.
	proc1, base1 := startServe(t, bin,
		"-addr", "127.0.0.1:0", "-data-dir", dataDir,
		"-corpus", corpusPath, "-ontology", ontPath)

	// Ingest three acknowledged batches.
	for i := 0; i < 3; i++ {
		body, _ := json.Marshal([]corpus.Document{
			{ID: fmt.Sprintf("doc-%d", i), Text: "Retinal detachment with vitreous hemorrhage."},
		})
		if code := post(t, base1+"/v1/documents", string(body)); code != http.StatusOK {
			t.Fatalf("ingest %d: status %d", i, code)
		}
	}
	wantDocs, wantEpoch := health(t, base1)
	if wantDocs != 4 || wantEpoch != 4 {
		t.Fatalf("pre-kill docs=%d epoch=%d, want 4/4", wantDocs, wantEpoch)
	}

	// A runtime-created entry: two ingests, a refused duplicate create
	// carrying a different payload, then one more ingest.
	const create = `{"name":"foo","lang":"en","concepts":[{"id":"F1","preferred":"heel pain"}],"documents":[{"id":"%s","text":"%s"}]}`
	if code := post(t, base1+"/v1/ontologies", fmt.Sprintf(create, "foo-seed", "Plantar fasciitis causes heel pain.")); code != http.StatusCreated {
		t.Fatalf("create foo: status %d", code)
	}
	ingestFoo := func(i int) {
		body := fmt.Sprintf(`[{"id":"foo-%d","text":"Heel pain after plantar fascia rupture."}]`, i)
		if code := post(t, base1+"/v1/ontologies/foo/documents", body); code != http.StatusOK {
			t.Fatalf("ingest foo-%d: status %d", i, code)
		}
	}
	ingestFoo(1)
	ingestFoo(2)
	if code := post(t, base1+"/v1/ontologies", fmt.Sprintf(create, "refused", "A refused heel payload.")); code != http.StatusConflict {
		t.Fatalf("duplicate create foo: status %d, want 409", code)
	}
	ingestFoo(3)
	wantFoo := ontologyGet(t, base1, "foo")
	if wantFoo.Docs != 4 || wantFoo.Epoch != 4 {
		t.Fatalf("pre-kill foo docs=%d epoch=%d, want 4/4", wantFoo.Docs, wantFoo.Epoch)
	}
	wantHits := get(t, base1+"/v1/ontologies/foo/search?q=heel&n=10")

	// The crash: SIGKILL, no goroutine gets to say goodbye.
	if err := proc1.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	proc1.Wait()

	// Second life: no -corpus/-ontology — the data dir is the only
	// source of state.
	_, base2 := startServe(t, bin, "-addr", "127.0.0.1:0", "-data-dir", dataDir)
	gotDocs, gotEpoch := health(t, base2)
	if gotDocs != wantDocs || gotEpoch != wantEpoch {
		t.Fatalf("post-restart docs=%d epoch=%d, want %d/%d", gotDocs, gotEpoch, wantDocs, wantEpoch)
	}
	if gotFoo := ontologyGet(t, base2, "foo"); gotFoo != wantFoo {
		t.Fatalf("post-restart foo = %+v, want %+v", gotFoo, wantFoo)
	}
	if gotHits := get(t, base2+"/v1/ontologies/foo/search?q=heel&n=10"); !bytes.Equal(gotHits, wantHits) {
		t.Fatalf("post-restart foo search = %s, want %s", gotHits, wantHits)
	}
}

// post sends a JSON body and returns the status code.
func post(t *testing.T, url, body string) int {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// get fetches url, requires a 200 and returns the body.
func get(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d body %s", url, resp.StatusCode, b)
	}
	return b
}

// entryState is the part of GET /v1/ontologies/{name} a restart must
// reproduce.
type entryState struct {
	Epoch uint64 `json:"epoch"`
	Docs  int    `json:"docs"`
}

func ontologyGet(t *testing.T, base, name string) entryState {
	t.Helper()
	var st entryState
	if err := json.Unmarshal(get(t, base+"/v1/ontologies/"+name), &st); err != nil {
		t.Fatal(err)
	}
	return st
}

// startServe launches the binary, scrapes the resolved listen address
// out of the "serving" log line, and waits for /v1/health.
func startServe(t *testing.T, bin string, args ...string) (*exec.Cmd, string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Signal(syscall.SIGKILL)
			cmd.Wait()
		}
	})

	addrRe := regexp.MustCompile(`\baddr=(\S+)`)
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if strings.Contains(line, "serving") {
				if m := addrRe.FindStringSubmatch(line); m != nil {
					addrc <- m[1]
				}
			}
		}
	}()
	var addr string
	select {
	case addr = <-addrc:
	case <-time.After(30 * time.Second):
		t.Fatal("server never logged its listen address")
	}
	base := "http://" + addr
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/v1/health")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return cmd, base
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("server at %s never became healthy", base)
	return nil, ""
}

// health fetches /v1/health and returns (docs, epoch).
func health(t *testing.T, base string) (int, uint64) {
	t.Helper()
	resp, err := http.Get(base + "/v1/health")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h struct {
		Docs  int    `json:"docs"`
		Epoch uint64 `json:"epoch"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	return h.Docs, h.Epoch
}
