package linkage

import (
	"context"
	"errors"
	"reflect"
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
