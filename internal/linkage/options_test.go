package linkage

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

	"bioenrich/internal/obs"
	"bioenrich/internal/synth"
)

// TestNewPreservesExplicitOptions: New keeps an explicitly-set Obs
// registry and disabled expansion flag.
func TestNewPreservesExplicitOptions(t *testing.T) {
	o, c := fixture()
	reg := obs.New()
	l := New(c, o, Options{Obs: reg, ExpandFathers: true})
	if l.opts.Obs != reg {
		t.Error("Obs clobbered")
	}
	if !l.opts.ExpandFathers || l.opts.ExpandSons {
		t.Errorf("expansion flags not honored: fathers=%v sons=%v",
			l.opts.ExpandFathers, l.opts.ExpandSons)
	}
}

// TestProposeContextCancelled: a cancelled context stops Propose
// before (and during) its corpus scans, surfacing the context's error.
func TestProposeContextCancelled(t *testing.T) {
	o, c := fixture()
	reduced := synth.HoldOut(o, "corneal injuries")
	l := New(c, reduced, DefaultOptions())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	props, err := l.ProposeContext(ctx, "corneal injuries", 10)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if props != nil {
		t.Errorf("cancelled Propose returned proposals: %v", props)
	}

	// The uncancelled context-aware path matches Propose exactly.
	want, err := l.Propose("corneal injuries", 10)
	if err != nil {
		t.Fatal(err)
	}
	got, err := l.ProposeContext(context.Background(), "corneal injuries", 10)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Error("ProposeContext proposals differ from Propose")
	}
}

// errAfter is a context whose Err turns context.Canceled after a
// fixed number of checks: a cancellation landed between two of the
// scan's own checks, whatever the machine's speed.
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

// TestProposeContextCancelledMidScan: the neighbour scan checks its
// context once per document holding the candidate, and a context
// cancelled between two of those checks stops it at the next one,
// with context.Canceled and no proposals.
func TestProposeContextCancelledMidScan(t *testing.T) {
	o, c := fixture()
	const cand = "corneal" // twice in one document
	l := New(c, o, DefaultOptions())
	docs := c.DF(cand)
	if docs < 3 || c.TF(cand) == docs {
		t.Fatalf("fixture holds %q %d times in %d documents, want 3 or more documents, one with two",
			cand, c.TF(cand), docs)
	}

	const plenty = 1000
	ctx := &errAfter{Context: context.Background()}
	ctx.budget.Store(plenty)
	if _, err := l.meshNeighbors(ctx, cand); err != nil {
		t.Fatal(err)
	}
	if checks := plenty - ctx.budget.Load(); checks != int64(docs) {
		t.Errorf("scan made %d checks, want one per document: %d", checks, docs)
	}

	// One check on entry, then the scan's: the budget runs out at
	// document d+1.
	for d := 0; d < docs; d++ {
		ctx := &errAfter{Context: context.Background()}
		ctx.budget.Store(int64(1 + d))
		props, err := l.ProposeContext(ctx, cand, 10)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled at document %d: err = %v, want context.Canceled", d+1, err)
		}
		if props != nil {
			t.Errorf("cancelled at document %d: proposals %v", d+1, props)
		}
		if left := ctx.budget.Load(); left != -1 {
			t.Errorf("cancelled at document %d: %d more checks after the first refused one", d+1, -1-left)
		}
	}
}
