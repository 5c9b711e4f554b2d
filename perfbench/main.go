// Command perfbench is bioenrich's benchmark. For one workload it
// generates the corpus and, from a seed, the traffic, boots the real
// cmd/serve on the corpus, drives it from this one generator process,
// checks that the outputs are correct, and prints every metric by name
// with its unit. With
// --trace 1 it instead runs the traced pass of every workload, which
// replays each window's op stream in process and prints per-layer
// numbers. See README.md for the workloads and metrics.
//
// Usage (from the repository root, through the build wrapper):
//
//	bash perfbench/run.sh --workload read|churn|enrich --seed N --seconds S --trace 0|1
//	bash perfbench/run.sh compare PARENT CHANGE
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// workloads in the order the traced pass runs them. segments is how
// many servers a measured run boots, one after another, each serving an
// equal share of the window; their boots count toward setup_s.
// Read and churn vary more between server processes than within one,
// so they get four; each enrich segment first runs a 3 s warm-up job,
// so enrich gets two.
var workloads = []struct {
	name     string
	segments int
	run      func(context.Context, *env) (*pass, error)
}{
	{"read", 4, runRead},
	{"churn", 4, runChurn},
	{"enrich", 2, runEnrich},
}

// gated are the end-to-end metrics every workload reports in its
// result line (BENCHMARK.json's end_to_end list): set-up time, the
// median latency of the workload's headline operation, and the
// server's peak memory.
var gated = []string{"setup_s", "p50_ms", "rss_peak_mb"}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compareMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			os.Exit(1)
		}
		return
	}
	fs := flag.NewFlagSet("perfbench", flag.ExitOnError)
	root := fs.String("root", ".", "repository checkout the benchmark writes its scratch files under")
	serveBin := fs.String("serve", "", "cmd/serve binary built from the checkout")
	workload := fs.String("workload", "", "read, churn or enrich")
	seed := fs.Int64("seed", 1, "seed for all request payloads and op sequences")
	seconds := fs.Int("seconds", 10, "measured window per workload, in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced pass and prints per-layer metrics")
	_ = fs.Parse(os.Args[1:]) // ExitOnError
	ok, err := run(*root, *serveBin, *workload, *seed, *seconds, *trace)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

func run(root, serveBin, workload string, seed int64, seconds, trace int) (bool, error) {
	if serveBin == "" {
		return false, errors.New("-serve is required (use perfbench/run.sh)")
	}
	if seconds <= 0 || (trace != 0 && trace != 1) {
		return false, fmt.Errorf("want --seconds > 0 and --trace 0 or 1, got %d and %d", seconds, trace)
	}
	found := false
	for _, w := range workloads {
		found = found || w.name == workload
	}
	if !found {
		return false, fmt.Errorf("unknown --workload %q (want read, churn or enrich)", workload)
	}
	base := filepath.Join(root, ".perfbench")
	e := &env{
		serveBin: serveBin,
		corpora:  filepath.Join(base, "corpora"),
		work:     filepath.Join(base, fmt.Sprintf("run-%d", os.Getpid())),
		seed:     seed,
		window:   time.Duration(seconds) * time.Second,
		trace:    trace == 1,
	}
	if err := os.MkdirAll(e.work, 0o755); err != nil {
		return false, err
	}
	defer os.RemoveAll(e.work)
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	var passes []*pass
	for _, w := range workloads {
		// The traced pass covers every workload, so each traced run
		// prints the whole per-layer table. It boots one server per
		// workload and measures half a window on it, to stay within one
		// run's time.
		e.segments = w.segments
		if e.trace {
			e.segments = 1
			e.window = time.Duration(seconds) * time.Second / 2
		} else if w.name != workload {
			continue
		}
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d, %s window, trace %v\n", w.name, seed, e.window, e.trace)
		p, err := w.run(ctx, e)
		if err != nil {
			return false, fmt.Errorf("%s: %w", w.name, err)
		}
		passes = append(passes, p)
	}
	return report(os.Stdout, workload, seed, e.trace, passes), nil
}

// jsonMetric is one metric in the printed JSON.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// record is the per-run line compare mode reads back.
type record struct {
	Record   string                `json:"record"`
	Workload string                `json:"workload"`
	Seed     int64                 `json:"seed"`
	Trace    bool                  `json:"trace"`
	Correct  bool                  `json:"correct"`
	Invalid  string                `json:"invalid,omitempty"`
	Checks   []string              `json:"failed_checks,omitempty"`
	Host     hostRecord            `json:"host"`
	Metrics  map[string]jsonMetric `json:"metrics"`
	// SegmentP50 is the headline p50 on each server the run booted.
	SegmentP50 []float64 `json:"segment_p50_ms,omitempty"`
}

const recordSchema = "perfbench/v1"

// resultMetric is one metric of the result line: value and unit only.
type resultMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]resultMetric `json:"metrics"`
}

// report prints every metric by name and unit, one record line per
// pass, and the result line; it returns whether every check passed
// and every pass was valid.
func report(out *os.File, workload string, seed int64, trace bool, passes []*pass) bool {
	res := result{Correct: true, Metrics: map[string]resultMetric{}}
	for _, p := range passes {
		rec := record{
			Record: recordSchema, Workload: p.workload, Seed: seed, Trace: trace,
			Correct: len(p.checks) == 0 && p.invalid == "", Invalid: p.invalid, Checks: p.checks,
			Host: p.host, Metrics: map[string]jsonMetric{}, SegmentP50: p.segmentP50,
		}
		fmt.Fprintf(out, "# %s (seed %d)\n", p.workload, seed)
		printed := p.e2e
		if trace {
			printed = p.layers
		}
		for _, m := range printed {
			fmt.Fprintf(out, "%-40s %14.4f %-10s n=%d\n", m.name, m.value, m.unit, m.n)
			rec.Metrics[m.name] = jsonMetric{Value: m.value, Unit: m.unit, N: m.n}
		}
		for _, c := range p.checks {
			fmt.Fprintf(os.Stderr, "perfbench: %s: check failed: %s\n", p.workload, c)
		}
		if p.invalid != "" {
			fmt.Fprintf(os.Stderr, "perfbench: %s: run invalid: %s\n", p.workload, p.invalid)
		}
		if trace {
			attribution(out, p)
		}
		line, err := json.Marshal(rec)
		if err != nil {
			panic(err) // plain structs always marshal
		}
		fmt.Fprintln(out, string(line))

		res.Correct = res.Correct && rec.Correct
		res.Attempted += p.attempted
		res.Failed += p.failed
		if trace {
			for k, v := range rec.Metrics {
				res.Metrics[k] = resultMetric{v.Value, v.Unit}
			}
			continue
		}
		for _, name := range gated {
			if v, ok := rec.Metrics[name]; ok {
				res.Metrics[name] = resultMetric{v.Value, v.Unit}
			}
		}
	}
	if !trace && len(res.Metrics) != len(gated) {
		res.Correct = false
		fmt.Fprintf(os.Stderr, "perfbench: %s reported %d of the %d gated metrics\n", workload, len(res.Metrics), len(gated))
	}
	line, err := json.Marshal(res)
	if err != nil {
		panic(err)
	}
	fmt.Fprintln(out, string(line))
	return res.Correct
}

// attribution prints, for churn, where the classify and ingest time
// went according to the traced pass.
func attribution(out *os.File, p *pass) {
	if p.workload != "churn" {
		return
	}
	v := map[string]float64{}
	for _, m := range p.layers {
		v[strings.TrimPrefix(m.name, "churn.")] = m.value
	}
	rebuild := v["classify.rebuild_ms"] * v["classify.rebuild_ratio"]
	fmt.Fprintf(out, "# churn classify: server mean %.1f ms; rebuild %.1f ms x ratio %.3f = %.1f ms (%.0f%%)\n",
		v["server.classify_ms"], v["classify.rebuild_ms"], v["classify.rebuild_ratio"], rebuild,
		100*ratioOr0(rebuild, v["server.classify_ms"]))
	var b strings.Builder
	for _, k := range []string{"corpus.clone_ms", "corpus.append_ms", "storage.wal_ms", "state.publish_ms", "batch.wait_ms"} {
		fmt.Fprintf(&b, " %s %.2f;", k, v[k])
	}
	fmt.Fprintf(out, "# churn ingest: server mean %.2f ms =%s\n", v["server.ingest_ms"], strings.TrimSuffix(b.String(), ";"))
}
