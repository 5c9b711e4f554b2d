package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"bioenrich/internal/corpus"
	"bioenrich/internal/ontology"
	"bioenrich/internal/synth"
)

// corpusSpec is one synthetic corpus shape, as in
// scripts/paper/experiments.json.
type corpusSpec struct {
	name                  string
	branches, depth, docs int
}

var (
	largeCorpus = corpusSpec{name: "large", branches: 4, depth: 4, docs: 8}
	smallCorpus = corpusSpec{name: "small", branches: 3, depth: 3, docs: 4}
)

// meshSeed is the experiments.json grid's seed. The corpora are the
// grid's, generated as cmd/gencorpus -seed 42 does (ontology at 42,
// text at 43), whatever the benchmark seed: a per-seed corpus changes
// which candidates step I picks, which moved enrich job time by up to
// 12% between seeds. The benchmark seed drives all traffic.
const meshSeed = 42

// corpusFiles are the generated inputs one server boots from.
type corpusFiles struct {
	corpus, ontology string
}

// genCorpus writes spec's corpus and ontology under dir, reusing files
// an earlier run of the same checkout already generated.
func genCorpus(dir string, spec corpusSpec) (corpusFiles, error) {
	out := filepath.Join(dir, spec.name)
	f := corpusFiles{corpus: filepath.Join(out, "corpus.json"), ontology: filepath.Join(out, "ontology.json")}
	if _, err := os.Stat(f.corpus); err == nil {
		return f, nil
	}
	tmp := out + ".tmp"
	if err := os.RemoveAll(tmp); err != nil {
		return f, err
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return f, err
	}
	mopts := synth.DefaultMeshOptions()
	mopts.Seed = meshSeed
	mopts.Branches, mopts.Depth = spec.branches, spec.depth
	mesh := synth.GenerateMesh(mopts)
	copts := synth.DefaultCorpusOptions()
	copts.Seed = meshSeed + 1
	copts.DocsPerConcept = spec.docs
	corp := synth.GenerateMeshCorpus(mesh, copts)
	if err := mesh.Ontology.Save(filepath.Join(tmp, "ontology.json")); err != nil {
		return f, err
	}
	if err := corp.Save(filepath.Join(tmp, "corpus.json")); err != nil {
		return f, err
	}
	return f, os.Rename(tmp, out)
}

// loadLibrary loads the generated files the way cmd/serve does, for
// the in-process reference calls and the traced replay.
func loadLibrary(f corpusFiles) (*corpus.Corpus, *ontology.Ontology, error) {
	c, err := corpus.Load(f.corpus)
	if err != nil {
		return nil, nil, err
	}
	o, err := ontology.Load(f.ontology)
	if err != nil {
		return nil, nil, err
	}
	return c, o, nil
}

// serverProc is one cmd/serve process the benchmark started.
type serverProc struct {
	cmd   *exec.Cmd
	waitc chan error
	log   *os.File
	c     *client
}

// bootServer starts cmd/serve with args on an ephemeral port and
// returns once GET /v1/ready answers 200, with the time from process
// start to that answer: the set-up time a user of the server waits.
func bootServer(ctx context.Context, e *env, name string, args []string) (*serverProc, time.Duration, error) {
	addrFile := filepath.Join(e.work, name+".addr")
	logPath := filepath.Join(e.work, name+".log")
	lf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	args = append([]string{"-addr", "127.0.0.1:0", "-addr-file", addrFile, "-log-level", "warn"}, args...)
	cmd := exec.Command(e.serveBin, args...)
	cmd.Stdout, cmd.Stderr = lf, lf
	// The server dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		lf.Close()
		return nil, 0, fmt.Errorf("start %s: %w", e.serveBin, err)
	}
	p := &serverProc{cmd: cmd, waitc: make(chan error, 1), log: lf}
	go func() { p.waitc <- cmd.Wait() }()

	deadline := time.Now().Add(90 * time.Second)
	var base string
	for base == "" {
		if raw, err := os.ReadFile(addrFile); err == nil && bytes.HasSuffix(raw, []byte("\n")) {
			base = "http://" + strings.TrimSpace(string(raw))
			break
		}
		if err := p.pause(ctx, deadline); err != nil {
			p.kill()
			return nil, 0, fmt.Errorf("%s: no listen address: %w (log %s)", name, err, logPath)
		}
	}
	p.c = newClient(base)
	for {
		if r, err := p.c.get(ctx, "/v1/ready"); err == nil && r.status == http.StatusOK {
			return p, time.Since(start), nil
		}
		if err := p.pause(ctx, deadline); err != nil {
			p.kill()
			return nil, 0, fmt.Errorf("%s: never ready: %w (log %s)", name, err, logPath)
		}
	}
}

// pause waits one readiness-poll interval, failing if the process
// exited, the deadline passed or ctx ended.
func (p *serverProc) pause(ctx context.Context, deadline time.Time) error {
	if time.Now().After(deadline) {
		return errors.New("timed out")
	}
	select {
	case err := <-p.waitc:
		p.waitc <- err
		return fmt.Errorf("server exited: %v", err)
	case <-ctx.Done():
		return ctx.Err()
	case <-time.After(2 * time.Millisecond):
		return nil
	}
}

// kill SIGKILLs the server and waits for it to exit. Idempotent.
func (p *serverProc) kill() {
	if p == nil || p.cmd.Process == nil {
		return
	}
	_ = p.cmd.Process.Kill() // already exited is fine
	err := <-p.waitc
	p.waitc <- err
	p.log.Close()
}

func (p *serverProc) pid() int { return p.cmd.Process.Pid }

// rssPeakMB is the server's peak resident set (VmHWM) in MiB.
func (p *serverProc) rssPeakMB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.pid()))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is
// 100 on every Linux architecture Go supports.
const clockTicks = 100

// cpuSeconds is the server's user+system CPU time so far.
func (p *serverProc) cpuSeconds() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.pid()))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(raw)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc stat line %q", s)
	}
	ut, err1 := strconv.ParseFloat(fields[11], 64)
	st, err2 := strconv.ParseFloat(fields[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return (ut + st) / clockTicks, nil
}

// client is the generator's HTTP client for one server, capped at
// maxConns connections.
type client struct {
	http *http.Client
	base string
}

// maxConns caps the generator's connections to the server at the
// reference host's core count. The read workload runs one closed-loop
// client per connection; churn runs a reader and a writer.
const maxConns = 2

func newClient(base string) *client {
	return &client{base: base, http: &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     maxConns,
			MaxIdleConnsPerHost: maxConns,
			DisableCompression:  true,
		},
	}}
}

// response is one completed round trip.
type response struct {
	status int
	header http.Header
	body   []byte
}

func (c *client) do(ctx context.Context, method, path string, body []byte) (response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return response{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return response{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return response{}, err
	}
	return response{status: resp.StatusCode, header: resp.Header, body: b}, nil
}

func (c *client) get(ctx context.Context, path string) (response, error) {
	return c.do(ctx, http.MethodGet, path, nil)
}

// health is the subset of GET /v1/health the checks use.
type health struct {
	Docs  int    `json:"docs"`
	Epoch uint64 `json:"epoch"`
}
