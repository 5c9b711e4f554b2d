package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"bioenrich/internal/obs"
)

// TestRunContextPreCancelled: a context cancelled before the run
// starts yields no report, the context's error, and one tick of the
// cancellation counter.
func TestRunContextPreCancelled(t *testing.T) {
	c, o := pipelineFixture()
	reg := obs.New()
	cfg := DefaultConfig()
	cfg.Obs = reg
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	report, err := NewEnricher(c, o, cfg).RunContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if report != nil {
		t.Errorf("cancelled run returned a report: %+v", report)
	}
	if got := reg.Counter(obs.RunsCancelledMetric).Value(); got != 1 {
		t.Errorf("%s = %v, want 1", obs.RunsCancelledMetric, got)
	}
}

// errAfter is a context whose Err flips to context.Canceled after a
// fixed number of cooperative checks — a deterministic way to land a
// cancellation mid-run, between two of the pipeline's own ctx.Err()
// polls, regardless of machine speed.
type errAfter struct {
	context.Context
	budget atomic.Int64
}

func (c *errAfter) Err() error {
	if c.budget.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestRunContextMidRunCancel cancels deterministically after a few
// cooperative checks, once inside step I's scan and once inside the
// fan-out: the run must stop there, return context.Canceled and no
// report, and the worker pool must drain cleanly (this test is part
// of the -race gate — a leaked worker goroutine would trip it).
func TestRunContextMidRunCancel(t *testing.T) {
	c, o := meshFixture()
	for _, tc := range []struct {
		budget int64
		stage  string // the error's name for where the run stopped
	}{
		{3, "step I"}, // run entry, then two documents of the scan
		// Past run entry and step I's per-document checks.
		{int64(c.NumDocs()) + 6, "run cancelled"},
	} {
		for _, workers := range []int{1, 4} {
			cfg := DefaultConfig()
			cfg.TopCandidates = 8
			cfg.Workers = workers
			ctx := &errAfter{Context: context.Background()}
			ctx.budget.Store(tc.budget)
			report, err := NewEnricher(c, o, cfg).RunContext(ctx)
			if !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), tc.stage) {
				t.Fatalf("budget %d, workers=%d: err = %v, want context.Canceled in %s",
					tc.budget, workers, err, tc.stage)
			}
			if report != nil {
				t.Errorf("budget %d, workers=%d: cancelled run returned a report", tc.budget, workers)
			}
		}
	}
}

// TestRunContextWallClockCancel covers the real-time path the errAfter
// harness bypasses: cancelling a live context mid-run makes the pool
// stop dispatching (the ctx.Done select) and return promptly.
func TestRunContextWallClockCancel(t *testing.T) {
	c, o := meshFixture()
	cfg := DefaultConfig()
	cfg.TopCandidates = 8
	cfg.Workers = 4
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond) // well inside the ~500ms run
		cancel()
	}()
	start := time.Now()
	report, err := NewEnricher(c, o, cfg).RunContext(ctx)
	elapsed := time.Since(start)
	if err == nil {
		t.Skip("run finished before the cancel landed (very fast machine)")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if report != nil {
		t.Error("cancelled run returned a report")
	}
	// Promptness: the run must not ride out its full natural duration.
	// One candidate's work is the agreed granularity; 10× the cancel
	// point is a generous bound that still catches "ran to completion".
	if elapsed > 2*time.Second {
		t.Errorf("cancelled run took %s to return", elapsed)
	}
}

// TestRunContextMatchesRun is the tentpole's determinism guarantee:
// with the same seed and no cancellation, RunContext's report is
// byte-identical to Run's.
func TestRunContextMatchesRun(t *testing.T) {
	c, o := meshFixture()
	cfg := DefaultConfig()
	cfg.TopCandidates = 8
	cfg.Workers = 4
	viaRun, err := NewEnricher(c, o, cfg).Run()
	if err != nil {
		t.Fatal(err)
	}
	viaCtx, err := NewEnricher(c, o, cfg).RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	a, err := json.Marshal(viaRun)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(viaCtx)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("RunContext report differs from Run report")
	}
}

// TestRunRoundsContextCancelledAppliesNothing: cancellation between a
// round's Run and its Apply must leave the ontology untouched — a
// cancelled enrich-apply loop never half-commits.
func TestRunRoundsContextCancelledAppliesNothing(t *testing.T) {
	c, o := meshFixture()
	before := o.NumTerms()
	cfg := DefaultConfig()
	cfg.TopCandidates = 6
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, err := NewEnricher(c, o, cfg).RunRoundsContext(ctx, 2)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(out) != 0 {
		t.Errorf("cancelled rounds returned %d round reports", len(out))
	}
	if o.NumTerms() != before {
		t.Errorf("ontology grew from %d to %d terms despite cancellation", before, o.NumTerms())
	}
}
