package jobs

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"bioenrich/internal/obs"
)

// newManager builds a manager whose jobs and runners die with the
// test.
func newManager(t *testing.T, opts Options) *Manager {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	m := New(ctx, opts)
	t.Cleanup(func() {
		cancel()
		m.Wait()
	})
	return m
}

// wedge is a job that runs until block is closed or it is cancelled.
func wedge(block <-chan struct{}) Fn {
	return func(ctx context.Context) (any, error) {
		select {
		case <-block:
		case <-ctx.Done():
		}
		return nil, ctx.Err()
	}
}

func quick(context.Context) (any, error) { return nil, nil }

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
	m := newManager(t, Options{})
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
	m := newManager(t, Options{})
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

// TestQueueFull: with one runner wedged and the queue at capacity, the
// next submission fails fast with ErrQueueFull — the 429 path.
func TestQueueFull(t *testing.T) {
	m := newManager(t, Options{Queue: 1, Workers: 1})
	block := make(chan struct{})
	defer close(block)
	// First job goes straight to a new runner, taking no queue slot.
	running, err := m.Submit("wedge", "", 1, wedge(block))
	if err != nil {
		t.Fatal(err)
	}
	if j, _ := m.Get(running.ID); j.Status != StatusRunning {
		t.Fatalf("first job is %s, want running", j.Status)
	}
	// Second fills the queue.
	if _, err := m.Submit("wedge", "", 1, wedge(block)); err != nil {
		t.Fatal(err)
	}
	// Third overflows.
	if _, err := m.Submit("wedge", "", 1, wedge(block)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
}

// TestCancelQueuedFreesSlots: cancelling every queued job frees their
// queue slots at once, while the running job still holds the runner;
// the depth gauge and Submit agree on how many jobs wait.
func TestCancelQueuedFreesSlots(t *testing.T) {
	reg := obs.New()
	m := newManager(t, Options{Queue: 2, Workers: 1, Obs: reg})
	depth := reg.Gauge(QueueDepthMetric)
	block := make(chan struct{})
	defer close(block)
	if _, err := m.Submit("wedge", "", 1, wedge(block)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		j, err := m.Submit("victim", "", 1, quick)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Cancel(j.ID); err != nil {
			t.Fatal(err)
		}
	}
	if got := depth.Value(); got != 0 {
		t.Fatalf("queue depth after cancelling every queued job = %v, want 0", got)
	}
	for i := 0; i < 2; i++ {
		if _, err := m.Submit("refill", "", 1, quick); err != nil {
			t.Fatalf("refill %d: %v", i, err)
		}
	}
	if got := depth.Value(); got != 2 {
		t.Errorf("queue depth after refilling = %v, want 2", got)
	}
	if _, err := m.Submit("overflow", "", 1, quick); !errors.Is(err, ErrQueueFull) {
		t.Errorf("err = %v, want ErrQueueFull", err)
	}
}

// TestCancelQueued: a job cancelled before any worker picks it up goes
// straight to cancelled and its Fn never runs.
func TestCancelQueued(t *testing.T) {
	m := newManager(t, Options{Queue: 4, Workers: 1})
	block := make(chan struct{})
	defer close(block)
	ran := make(chan struct{}, 4)
	if _, err := m.Submit("wedge", "", 1, wedge(block)); err != nil {
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
	m := newManager(t, Options{})
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

// TestFinishedJobsDropFn: a job that is done, failed, or cancelled
// while queued or running holds no Fn, so until its TTL passes it no
// longer pins what its Fn captured.
func TestFinishedJobsDropFn(t *testing.T) {
	m := newManager(t, Options{Queue: 4, Workers: 1})
	block, started := make(chan struct{}), make(chan struct{})
	defer close(block)
	running, err := m.Submit("wedge", "", 1, func(ctx context.Context) (any, error) {
		close(started)
		return wedge(block)(ctx)
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	queued, err := m.Submit("victim", "", 1, quick)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{queued.ID, running.ID} {
		if _, err := m.Cancel(id); err != nil {
			t.Fatal(err)
		}
	}
	done, err := m.Submit("done", "", 1, quick)
	if err != nil {
		t.Fatal(err)
	}
	failed, err := m.Submit("failed", "", 1, func(context.Context) (any, error) { return nil, errors.New("boom") })
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]Status{
		running.ID: StatusCancelled, queued.ID: StatusCancelled,
		done.ID: StatusDone, failed.ID: StatusFailed,
	}
	for id, status := range want {
		if got := await(t, m, id).Status; got != status {
			t.Fatalf("job %s: %s, want %s", id, got, status)
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for id, status := range want {
		if m.jobs[id].fn != nil {
			t.Errorf("%s job %s still holds its Fn", status, id)
		}
	}
}

// TestTTLGC: a finished job is removed once its TTL has passed; an
// unfinished job survives.
func TestTTLGC(t *testing.T) {
	m := newManager(t, Options{TTL: 200 * time.Millisecond})
	j, err := m.Submit("quick", "", 1, func(context.Context) (any, error) { return "ok", nil })
	if err != nil {
		t.Fatal(err)
	}
	await(t, m, j.ID)
	block := make(chan struct{})
	defer close(block)
	alive, err := m.Submit("wedge", "", 1, wedge(block))
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, ok := m.Get(j.ID); !ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("expired job still retained")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, ok := m.Get(alive.ID); !ok {
		t.Error("live job removed")
	}
}

// TestListOrder: an unbounded Page lists every job in submission
// order with stable IDs.
func TestListOrder(t *testing.T) {
	m := newManager(t, Options{Queue: 8})
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

// TestListOrderPastAMillion: jobs list in submission order when their
// IDs grow a digit, and a cursor at j-999999 resumes at the jobs
// submitted after it.
func TestListOrderPastAMillion(t *testing.T) {
	m := newManager(t, Options{TTL: -1})
	m.seq = 999998
	for i := 0; i < 3; i++ {
		j, err := m.Submit("quick", "", 1, quick)
		if err != nil {
			t.Fatal(err)
		}
		await(t, m, j.ID)
	}
	ids := func(list []Job) string {
		var s []string
		for _, j := range list {
			s = append(s, j.ID)
		}
		return strings.Join(s, " ")
	}
	all, _ := m.Page("", 0, "")
	if got, want := ids(all), "j-999999 j-1000000 j-1000001"; got != want {
		t.Errorf("list = %s, want %s", got, want)
	}
	rest, _ := m.Page("j-999999", 0, "")
	if got, want := ids(rest), "j-1000000 j-1000001"; got != want {
		t.Errorf("list after j-999999 = %s, want %s", got, want)
	}
}

// TestValidID: only the IDs Submit mints are valid cursors.
func TestValidID(t *testing.T) {
	for id, want := range map[string]bool{
		"j-000001": true, "j-999999": true, "j-1000000": true,
		"": false, "j-": false, "j-000000": false, "j-1": false, "j-0000001": false,
		"j-+00001": false, "j--00001": false, "000001": false, "not-a-cursor": false,
	} {
		if got := ValidID(id); got != want {
			t.Errorf("ValidID(%q) = %v, want %v", id, got, want)
		}
	}
}

// TestShutdownCancelsRunning: cancelling the root context takes a
// running job down with it, and no runner takes the queued one.
func TestShutdownCancelsRunning(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	m := New(ctx, Options{})
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
	queued, err := m.Submit("quick", "", 1, quick)
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	m.Wait()
	if v, _ := m.Get(queued.ID); v.Status != StatusQueued {
		t.Errorf("queued job after shutdown is %s, want queued", v.Status)
	}
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
	m := newManager(t, Options{Obs: reg})
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

// TestJobMetricsKeepUpWithStatus: once Get reports a job terminal, the
// done counter and the duration histogram already count it. The test
// spins on Get rather than sleeping, so it reads the metrics in the
// window right after the terminal status is published.
func TestJobMetricsKeepUpWithStatus(t *testing.T) {
	reg := obs.New()
	m := newManager(t, Options{Obs: reg})
	done := reg.Counter(JobsMetric, "status", string(StatusDone))
	durations := reg.Histogram(DurationMetric, nil)
	const n = 2000
	for i := 1; i <= n; i++ {
		j, err := m.Submit("quick", "", 1, func(context.Context) (any, error) { return nil, nil })
		if err != nil {
			t.Fatal(err)
		}
		for {
			v, ok := m.Get(j.ID)
			if !ok {
				t.Fatalf("job %s vanished", j.ID)
			}
			if v.Status.Terminal() {
				break
			}
			runtime.Gosched()
		}
		if got := done.Value(); got != float64(i) {
			t.Fatalf("job %d terminal but done transitions = %v", i, got)
		}
		if got := durations.Count(); got != uint64(i) {
			t.Fatalf("job %d terminal but duration observations = %d", i, got)
		}
	}
}

// TestTTLSemantics pins the two TTL sentinels: zero defaults to
// DefaultTTL, and negative retains forever. TestTTLGC covers a
// positive TTL.
func TestTTLSemantics(t *testing.T) {
	finish := func(m *Manager) Job {
		t.Helper()
		j, err := m.Submit("quick", "", 1, quick)
		if err != nil {
			t.Fatal(err)
		}
		return await(t, m, j.ID)
	}

	t.Run("zero means DefaultTTL", func(t *testing.T) {
		m := newManager(t, Options{})
		if got := m.opts.TTL; got != DefaultTTL {
			t.Fatalf("defaulted TTL = %v, want %v", got, DefaultTTL)
		}
		j := finish(m)
		// A just-finished job is far inside the 15m default window.
		if _, ok := m.Get(j.ID); !ok {
			t.Error("fresh job removed under default TTL")
		}
	})

	t.Run("negative retains forever and starts no sweeper", func(t *testing.T) {
		m := newManager(t, Options{TTL: -1})
		j := finish(m)
		time.Sleep(2 * time.Millisecond)
		if _, ok := m.Get(j.ID); !ok {
			t.Error("job removed despite retain-forever TTL")
		}
	})
}

// TestWaitReturnsWhenIdle: a runner exits once the queue is empty, so
// Wait returns after the last job finishes without the root context
// being cancelled.
func TestWaitReturnsWhenIdle(t *testing.T) {
	m := newManager(t, Options{})
	j, err := m.Submit("quick", "", 1, quick)
	if err != nil {
		t.Fatal(err)
	}
	await(t, m, j.ID)
	waited := make(chan struct{})
	go func() {
		m.Wait()
		close(waited)
	}()
	select {
	case <-waited:
	case <-time.After(10 * time.Second):
		t.Fatal("Wait still blocked 10s after the only job finished")
	}
}

// TestConcurrentSubmitCancel: submitters and cancellers on several
// goroutines against three runners that start and exit as the queue
// fills and drains. Every accepted job ends done or cancelled, the
// transition counters add up, and the queue ends empty. Run it with
// -race: the runner handoff and the WaitGroup are what it exercises.
func TestConcurrentSubmitCancel(t *testing.T) {
	reg := obs.New()
	m := newManager(t, Options{Queue: 64, Workers: 3, Obs: reg})
	const submitters, perSubmitter = 4, 50
	ids := make(chan string, submitters*perSubmitter)
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perSubmitter; i++ {
				j, err := m.Submit("quick", "", 1, func(context.Context) (any, error) {
					runtime.Gosched()
					return nil, nil
				})
				if errors.Is(err, ErrQueueFull) {
					continue
				}
				if err != nil {
					t.Error(err)
					return
				}
				if i%3 == 0 {
					// A job can finish before its cancel lands.
					if _, err := m.Cancel(j.ID); err != nil && !errors.Is(err, ErrFinished) {
						t.Error(err)
					}
				}
				ids <- j.ID
			}
		}()
	}
	wg.Wait()
	close(ids)
	accepted := 0
	for id := range ids {
		accepted++
		if s := await(t, m, id).Status; s != StatusDone && s != StatusCancelled {
			t.Errorf("job %s ended %s", id, s)
		}
	}
	m.Wait()
	count := func(s Status) float64 { return reg.Counter(JobsMetric, "status", string(s)).Value() }
	if got := count(StatusQueued); got != float64(accepted) {
		t.Errorf("queued transitions = %v, want %d", got, accepted)
	}
	if got := count(StatusDone) + count(StatusCancelled); got != float64(accepted) {
		t.Errorf("done + cancelled transitions = %v, want %d", got, accepted)
	}
	if got := reg.Gauge(QueueDepthMetric).Value(); got != 0 {
		t.Errorf("queue depth = %v, want 0", got)
	}
}
