package linkage

import (
	"reflect"
	"sync"
	"testing"
)

// TestProposeConcurrentMatchesSequential proves a shared Linker (and
// its context-vector cache) is safe under concurrent Propose calls and
// returns exactly what a fresh Linker returns sequentially — the
// contract core.Enricher's worker pool relies on. Run under -race to
// exercise the cache's synchronization.
func TestProposeConcurrentMatchesSequential(t *testing.T) {
	o, c := fixture()
	terms := []string{"corneal injuries", "eye injuries", "corneal diseases"}

	want := make(map[string][]Proposal, len(terms))
	for _, term := range terms {
		props, err := New(c, o, DefaultOptions()).Propose(term, 10)
		if err != nil {
			t.Fatalf("sequential Propose(%q): %v", term, err)
		}
		want[term] = props
	}

	shared := New(c, o, DefaultOptions())
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				term := terms[(g+i)%len(terms)]
				props, err := shared.Propose(term, 10)
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(props, want[term]) {
					t.Errorf("concurrent Propose(%q) diverged from sequential", term)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestContextVectorCached verifies the cache is a real cache: the
// second lookup returns the stored vector, including for terms absent
// from the corpus (the empty-vector case common for ontology leaves),
// and the norm cached beside it is the vector's Norm.
func TestContextVectorCached(t *testing.T) {
	o, c := fixture()
	l := New(c, o, DefaultOptions())

	tv := l.contextVector("corneal injuries")
	first := tv.vec
	if len(first) == 0 {
		t.Fatal("fixture term has no context vector")
	}
	if tv.norm != first.Norm() {
		t.Errorf("cached norm = %v, vector's Norm = %v", tv.norm, first.Norm())
	}
	second := l.contextVector("corneal injuries").vec
	if reflect.ValueOf(first).Pointer() != reflect.ValueOf(second).Pointer() {
		t.Error("second lookup did not return the cached vector")
	}

	missing := l.contextVector("no such term anywhere").vec
	if len(missing) != 0 {
		t.Fatalf("absent term yielded %d entries", len(missing))
	}
	if _, ok := l.vecs.Load("no such term anywhere"); !ok {
		t.Error("empty vector not cached (absent terms are the expensive common case)")
	}
}
