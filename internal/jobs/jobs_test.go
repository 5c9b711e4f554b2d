package jobs

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"bioenrich/internal/obs"
)

// startManager builds and starts a manager whose workers die with the
// test.
func startManager(t *testing.T, opts Options) *Manager {
	t.Helper()
	m := New(opts)
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(func() {
		cancel()
		m.Wait()
	})
	m.Start(ctx)
	return m
}

// await polls until the job reaches a terminal status.
func await(t *testing.T, m *Manager, id string) Job {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		j, ok := m.Get(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		if j.Status.Terminal() {
			return j
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return Job{}
}

func TestLifecycleDone(t *testing.T) {
	m := startManager(t, Options{})
	j, err := m.Submit("enrich", "req-1", 7, func(context.Context) (any, error) {
		return map[string]int{"answer": 42}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if j.Status != StatusQueued || j.Kind != "enrich" || j.RequestID != "req-1" || j.Epoch != 7 {
		t.Fatalf("submitted view = %+v", j)
	}
	final := await(t, m, j.ID)
	if final.Status != StatusDone || final.Err != nil {
		t.Fatalf("final = %+v", final)
	}
	if final.Result.(map[string]int)["answer"] != 42 {
		t.Errorf("result = %v", final.Result)
	}
	if final.Started.IsZero() || final.Finished.Before(final.Started) {
		t.Errorf("timestamps: started %v finished %v", final.Started, final.Finished)
	}
}

func TestLifecycleFailed(t *testing.T) {
	m := startManager(t, Options{})
	boom := errors.New("boom")
	j, err := m.Submit("enrich", "", 1, func(context.Context) (any, error) { return nil, boom })
	if err != nil {
		t.Fatal(err)
	}
	final := await(t, m, j.ID)
	if final.Status != StatusFailed || !errors.Is(final.Err, boom) {
		t.Fatalf("final = %+v", final)
	}
}

func TestSubmitBeforeStart(t *testing.T) {
	m := New(Options{})
	if _, err := m.Submit("enrich", "", 1, func(context.Context) (any, error) { return nil, nil }); !errors.Is(err, ErrNotStarted) {
		t.Fatalf("err = %v, want ErrNotStarted", err)
	}
}

// TestQueueFull: with one worker wedged and the queue at capacity, the
// next submission fails fast with ErrQueueFull — the 429 path.
func TestQueueFull(t *testing.T) {
	m := startManager(t, Options{Queue: 1, Workers: 1})
	block := make(chan struct{})
	defer close(block)
	wedge := func(ctx context.Context) (any, error) {
		select {
		case <-block:
		case <-ctx.Done():
		}
		return nil, ctx.Err()
	}
	// First job occupies the worker.
	running, err := m.Submit("wedge", "", 1, wedge)
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the worker to pick it up so the queue slot is free.
	deadline := time.Now().Add(5 * time.Second)
	for {
		j, _ := m.Get(running.ID)
		if j.Status == StatusRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
		time.Sleep(time.Millisecond)
	}
	// Second fills the queue.
	if _, err := m.Submit("wedge", "", 1, wedge); err != nil {
		t.Fatal(err)
	}
	// Third overflows.
	if _, err := m.Submit("wedge", "", 1, wedge); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
}

// TestCancelQueued: a job cancelled before any worker picks it up goes
// straight to cancelled and its Fn never runs.
func TestCancelQueued(t *testing.T) {
	m := startManager(t, Options{Queue: 4, Workers: 1})
	block := make(chan struct{})
	defer close(block)
	ran := make(chan struct{}, 4)
	if _, err := m.Submit("wedge", "", 1, func(ctx context.Context) (any, error) {
		select {
		case <-block:
		case <-ctx.Done():
		}
		return nil, ctx.Err()
	}); err != nil {
		t.Fatal(err)
	}
	queued, err := m.Submit("victim", "", 1, func(context.Context) (any, error) {
		ran <- struct{}{}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	view, err := m.Cancel(queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if view.Status != StatusCancelled {
		t.Fatalf("status after cancel = %s", view.Status)
	}
	if _, err := m.Cancel(queued.ID); !errors.Is(err, ErrFinished) {
		t.Errorf("second cancel err = %v, want ErrFinished", err)
	}
	select {
	case <-ran:
		t.Error("cancelled queued job still ran")
	case <-time.After(50 * time.Millisecond):
	}
}

// TestCancelRunning: cancelling a running job cancels its context; a
// ctx-honoring Fn winds down and the job lands in cancelled.
func TestCancelRunning(t *testing.T) {
	m := startManager(t, Options{})
	started := make(chan struct{})
	j, err := m.Submit("long", "", 1, func(ctx context.Context) (any, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := m.Cancel(j.ID); err != nil {
		t.Fatal(err)
	}
	final := await(t, m, j.ID)
	if final.Status != StatusCancelled || !errors.Is(final.Err, context.Canceled) {
		t.Fatalf("final = %+v", final)
	}
	if _, err := m.Cancel("j-999999"); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown id err = %v, want ErrNotFound", err)
	}
}

// TestTTLGC: finished jobs older than TTL are swept; unfinished jobs
// survive.
func TestTTLGC(t *testing.T) {
	m := startManager(t, Options{TTL: time.Nanosecond})
	j, err := m.Submit("quick", "", 1, func(context.Context) (any, error) { return "ok", nil })
	if err != nil {
		t.Fatal(err)
	}
	await(t, m, j.ID)
	block := make(chan struct{})
	defer close(block)
	alive, err := m.Submit("wedge", "", 1, func(ctx context.Context) (any, error) {
		select {
		case <-block:
		case <-ctx.Done():
		}
		return nil, ctx.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(2 * time.Millisecond) // let the nanosecond TTL lapse
	if removed := m.GC(); removed != 1 {
		t.Errorf("GC removed %d, want 1", removed)
	}
	if _, ok := m.Get(j.ID); ok {
		t.Error("expired job still retained")
	}
	if _, ok := m.Get(alive.ID); !ok {
		t.Error("live job swept")
	}
}

// TestListOrder: an unbounded Page lists every job in submission
// order with stable IDs.
func TestListOrder(t *testing.T) {
	m := startManager(t, Options{Queue: 8})
	for i := 0; i < 3; i++ {
		if _, err := m.Submit("quick", "", 1, func(context.Context) (any, error) { return nil, nil }); err != nil {
			t.Fatal(err)
		}
	}
	list, more := m.Page("", 0, "")
	if more {
		t.Error("unbounded page reports more jobs")
	}
	if len(list) != 3 {
		t.Fatalf("list = %d jobs", len(list))
	}
	for i := 1; i < len(list); i++ {
		if list[i-1].ID >= list[i].ID {
			t.Errorf("list out of order: %s before %s", list[i-1].ID, list[i].ID)
		}
	}
	if !strings.HasPrefix(list[0].ID, "j-") {
		t.Errorf("id = %q", list[0].ID)
	}
}

// TestShutdownCancelsRunning: cancelling the Start context takes a
// running job down with it.
func TestShutdownCancelsRunning(t *testing.T) {
	m := New(Options{})
	ctx, cancel := context.WithCancel(context.Background())
	m.Start(ctx)
	started := make(chan struct{})
	j, err := m.Submit("long", "", 1, func(ctx context.Context) (any, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	cancel()
	m.Wait()
	final, ok := m.Get(j.ID)
	if !ok {
		t.Fatal("job vanished")
	}
	// Root-context shutdown is not a user cancel: the job fails.
	if final.Status != StatusFailed || !errors.Is(final.Err, context.Canceled) {
		t.Fatalf("final = %+v", final)
	}
}

// TestJobMetrics: the manager reports transitions, queue depth and
// durations through obs.
func TestJobMetrics(t *testing.T) {
	reg := obs.New()
	m := startManager(t, Options{Obs: reg})
	j, err := m.Submit("quick", "", 1, func(context.Context) (any, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	await(t, m, j.ID)
	if got := reg.Counter(JobsMetric, "status", string(StatusDone)).Value(); got != 1 {
		t.Errorf("done transitions = %v, want 1", got)
	}
	if got := reg.Counter(JobsMetric, "status", string(StatusQueued)).Value(); got != 1 {
		t.Errorf("queued transitions = %v, want 1", got)
	}
	if got := reg.Gauge(QueueDepthMetric).Value(); got != 0 {
		t.Errorf("queue depth after drain = %v, want 0", got)
	}
	if got := reg.Histogram(DurationMetric, nil).Count(); got != 1 {
		t.Errorf("duration observations = %v, want 1", got)
	}
}

// TestTTLSemantics pins the three TTL regimes: positive sweeps,
// zero defaults to DefaultTTL (and sweeps on that schedule), and
// negative retains forever without ever starting the sweeper.
func TestTTLSemantics(t *testing.T) {
	finish := func(m *Manager) Job {
		t.Helper()
		j, err := m.Submit("quick", "", 1, func(context.Context) (any, error) { return nil, nil })
		if err != nil {
			t.Fatal(err)
		}
		return await(t, m, j.ID)
	}

	t.Run("zero means DefaultTTL", func(t *testing.T) {
		m := startManager(t, Options{})
		if got := m.opts.TTL; got != DefaultTTL {
			t.Fatalf("defaulted TTL = %v, want %v", got, DefaultTTL)
		}
		if !m.Sweeping() {
			t.Error("default TTL should start the sweeper")
		}
		j := finish(m)
		// A just-finished job is far inside the 15m default window.
		if removed := m.GC(); removed != 0 {
			t.Errorf("GC removed %d fresh jobs, want 0", removed)
		}
		if _, ok := m.Get(j.ID); !ok {
			t.Error("fresh job swept under default TTL")
		}
	})

	t.Run("negative retains forever and starts no sweeper", func(t *testing.T) {
		m := startManager(t, Options{TTL: -1})
		if m.Sweeping() {
			t.Error("negative TTL must not start the sweeper goroutine")
		}
		j := finish(m)
		time.Sleep(2 * time.Millisecond)
		if removed := m.GC(); removed != 0 {
			t.Errorf("GC removed %d with TTL disabled, want 0", removed)
		}
		if _, ok := m.Get(j.ID); !ok {
			t.Error("job swept despite retain-forever TTL")
		}
	})

	t.Run("positive sweeps and reports sweeper", func(t *testing.T) {
		m := startManager(t, Options{TTL: time.Nanosecond})
		if !m.Sweeping() {
			t.Error("positive TTL should start the sweeper")
		}
		j := finish(m)
		time.Sleep(2 * time.Millisecond)
		if removed := m.GC(); removed != 1 {
			t.Errorf("GC removed %d, want 1", removed)
		}
		if _, ok := m.Get(j.ID); ok {
			t.Error("expired job still retained")
		}
	})

	t.Run("sweeping is false before Start", func(t *testing.T) {
		m := New(Options{})
		if m.Sweeping() {
			t.Error("Sweeping() true before Start")
		}
	})
}
