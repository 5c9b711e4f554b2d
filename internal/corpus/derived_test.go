package corpus

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// TestDerivedBuildsOnce: goroutines racing on an empty slot run build
// once, and all of them get its value.
func TestDerivedBuildsOnce(t *testing.T) {
	c := buildTestCorpus()
	var builds atomic.Int32
	release := make(chan struct{})
	build := func() (any, error) {
		<-release
		return int(builds.Add(1)), nil
	}
	const callers = 8
	got := make([]any, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := c.Derived(context.Background(), build)
			if err != nil {
				t.Error(err)
			}
			got[i] = v
		}(i)
	}
	close(release)
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Errorf("%d builds, want 1", n)
	}
	for i, v := range got {
		if v != 1 {
			t.Errorf("caller %d got %v, want 1", i, v)
		}
	}
}

// TestDerivedFailedBuild: a failed build keeps nothing, so the next
// caller builds afresh.
func TestDerivedFailedBuild(t *testing.T) {
	c := buildTestCorpus()
	boom := errors.New("boom")
	if _, err := c.Derived(context.Background(), func() (any, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("failed build: err = %v, want boom", err)
	}
	v, err := c.Derived(context.Background(), func() (any, error) { return "table", nil })
	if err != nil || v != "table" {
		t.Errorf("after a failed build: %v, %v; want table, nil", v, err)
	}
}

// TestDerivedWaiterGivesUp: a caller waiting for another's build
// returns its own context's error, and the build still lands.
func TestDerivedWaiterGivesUp(t *testing.T) {
	c := buildTestCorpus()
	started, release := make(chan struct{}), make(chan struct{})
	done := make(chan error)
	go func() {
		_, err := c.Derived(context.Background(), func() (any, error) {
			close(started)
			<-release
			return "table", nil
		})
		done <- err
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Derived(ctx, func() (any, error) { return "second", nil }); !errors.Is(err, context.Canceled) {
		t.Errorf("waiter: err = %v, want context.Canceled", err)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if v, _ := c.Derived(context.Background(), func() (any, error) { return "second", nil }); v != "table" {
		t.Errorf("kept %v, want table", v)
	}
}

// TestDerivedEmptiedByMutators: Build and AppendBuild empty the slot, a
// clone starts with an empty one, and the original keeps its value.
func TestDerivedEmptiedByMutators(t *testing.T) {
	more := []Document{{ID: "d4", Text: "Corneal ulcer treatment."}}
	for _, tc := range []struct {
		name   string
		mutate func(c *Corpus) *Corpus
	}{
		{"Build", func(c *Corpus) *Corpus { c.Build(); return c }},
		{"AppendBuild", func(c *Corpus) *Corpus { c.AppendBuild(more); return c }},
		{"Clone", func(c *Corpus) *Corpus { return c.Clone() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := buildTestCorpus()
			keep := func(c *Corpus, v string) any {
				got, err := c.Derived(context.Background(), func() (any, error) { return v, nil })
				if err != nil {
					t.Fatal(err)
				}
				return got
			}
			keep(c, "old")
			if got := keep(tc.mutate(c), "new"); got != "new" {
				t.Errorf("after %s the slot held %v", tc.name, got)
			}
			if tc.name == "Clone" && keep(c, "new") != "old" {
				t.Error("Clone emptied the original's slot")
			}
		})
	}
}
