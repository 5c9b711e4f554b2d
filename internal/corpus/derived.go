package corpus

import (
	"context"
	"sync"
	"sync/atomic"
)

// Slot keeps one value that another package derives from published
// data and reads on every later call. A built corpus keeps step I's
// candidate table, which internal/termex fills, in its Slot, and a
// state.Snapshot keeps classify's concept-profile index in its own.
// The value depends on the data the slot sits beside alone, so that
// data stays logically immutable. The zero Slot is empty and ready to
// use; a Slot must not be copied. Build and AppendBuild empty a
// corpus's slot, and Clone starts its copy with an empty one; a
// snapshot is never rebuilt, so its value lives as long as it does.
type Slot struct {
	kept atomic.Pointer[any] // the kept value; nil until a build succeeds
	mu   sync.Mutex
	busy chan struct{} // non-nil while a build runs; closed when it ends
}

// Derived returns the value kept in the slot, calling build to fill it
// on first use. A kept value is read with one atomic load. Callers
// that race on an empty slot build once: one runs build, the others
// wait for it, or return ctx's error if ctx ends first. A failed build
// keeps nothing, and the next caller builds afresh. Only build runs
// the caller's code, and it runs with no lock held.
func (s *Slot) Derived(ctx context.Context, build func() (any, error)) (v any, err error) {
	if kept := s.kept.Load(); kept != nil {
		return *kept, nil
	}
	for {
		kept, wait := s.claim()
		if kept != nil {
			return *kept, nil
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
	defer func() { s.settle(v, err) }() // also when build panics
	return build()
}

// claim returns the kept value, or else the channel of the build in
// flight, or else (nil, nil) after marking a build in flight for the
// caller, who must settle it.
func (s *Slot) claim() (*any, chan struct{}) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if kept := s.kept.Load(); kept != nil || s.busy != nil {
		return kept, s.busy
	}
	s.busy = make(chan struct{})
	return nil, nil
}

// settle ends the build claim started: it keeps v when the build
// succeeded and wakes every waiter.
func (s *Slot) settle(v any, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err == nil && v != nil {
		s.kept.Store(&v)
	}
	close(s.busy)
	s.busy = nil
}

// forget empties the slot; Build and AppendBuild call it.
func (s *Slot) forget() {
	s.kept.Store(nil)
}
