package corpus

import (
	"context"
	"sync"
)

// derived is the one slot a built corpus keeps a value in that another
// package computes from it and reads on every later call: step I's
// candidate table, which internal/termex fills. The value depends on
// the built corpus alone, so a published corpus stays logically
// immutable; Build and AppendBuild empty the slot, and Clone starts its
// copy with an empty one.
type derived struct {
	mu   sync.Mutex
	v    any           // the kept value; nil until a build succeeds
	busy chan struct{} // non-nil while a build runs; closed when it ends
}

// Derived returns the value kept in the corpus's slot, calling build to
// fill it on first use. Callers that race on an empty slot build once:
// one runs build, the others wait for it, or return ctx's error if ctx
// ends first. A failed build keeps nothing, and the next caller builds
// afresh. Only build runs the caller's code, and it runs with no lock
// held.
func (c *Corpus) Derived(ctx context.Context, build func() (any, error)) (v any, err error) {
	d := &c.derived
	for {
		kept, wait := d.claim()
		if kept != nil {
			return kept, nil
		}
		if wait == nil {
			break // claimed: this caller builds
		}
		select {
		case <-wait:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	defer func() { d.settle(v, err) }() // also when build panics
	return build()
}

// claim returns the kept value, or else the channel of the build in
// flight, or else (nil, nil) after marking a build in flight for the
// caller, who must settle it.
func (d *derived) claim() (any, chan struct{}) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.v != nil || d.busy != nil {
		return d.v, d.busy
	}
	d.busy = make(chan struct{})
	return nil, nil
}

// settle ends the build claim started: it keeps v when err is nil and
// wakes every waiter.
func (d *derived) settle(v any, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err == nil {
		d.v = v
	}
	close(d.busy)
	d.busy = nil
}

// forget empties the slot; Build and AppendBuild call it.
func (c *Corpus) forget() {
	c.derived.mu.Lock()
	defer c.derived.mu.Unlock()
	c.derived.v = nil
}
