// Package jobs runs heavyweight work — enrichment pipeline runs —
// off-request, so interactive endpoints stay fast while a multi-second
// analysis grinds in the background (the deployment shape of NCBO's
// Annotator/Recommender services). The Manager is a bounded-queue
// worker pool with an explicit job lifecycle:
//
//	queued → running → done | failed | cancelled
//
// Submissions past the queue bound fail fast with ErrQueueFull (429
// at the HTTP layer) instead of buffering unboundedly. Each running
// job gets its own context derived from the manager's root, so a job
// can be cancelled individually (DELETE /v1/jobs/{id}) and every job
// dies with the server's root context on shutdown. Finished jobs are
// retained for Options.TTL so clients can poll results, then swept.
//
// The package is deliberately ignorant of the pipeline: a job is just
// a func(ctx) (any, error). The server closes over the snapshot a job
// was submitted under, which is what makes job runs snapshot-isolated.
package jobs

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"bioenrich/internal/obs"
)

// Status is a job's lifecycle state.
type Status string

const (
	StatusQueued    Status = "queued"
	StatusRunning   Status = "running"
	StatusDone      Status = "done"
	StatusFailed    Status = "failed"
	StatusCancelled Status = "cancelled"
)

// Terminal reports whether the status is final.
func (s Status) Terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCancelled
}

var (
	// ErrQueueFull: the pending queue is at capacity. Retry later
	// (HTTP 429).
	ErrQueueFull = errors.New("jobs: queue full")
	// ErrNotStarted: Submit before Start. The manager owns no worker
	// goroutines until Start hands it a root context.
	ErrNotStarted = errors.New("jobs: manager not started")
	// ErrNotFound: no job with that ID (possibly already swept by TTL
	// garbage collection).
	ErrNotFound = errors.New("jobs: no such job")
	// ErrFinished: Cancel on a job that already reached a terminal
	// status.
	ErrFinished = errors.New("jobs: job already finished")
)

// Metric names, exposed so the server's exposition test can pin them.
const (
	// QueueDepthMetric gauges jobs currently waiting (queued, not yet
	// picked up by a worker).
	QueueDepthMetric = "bioenrich_jobs_queue_depth"
	// JobsMetric counts lifecycle transitions by state label: how many
	// jobs ever entered queued/running/done/failed/cancelled.
	JobsMetric = "bioenrich_jobs_total"
	// DurationMetric is the per-job run duration histogram (seconds,
	// measured from worker pickup to completion).
	DurationMetric = "bioenrich_job_duration_seconds"
)

// DefaultTTL is the finished-job retention applied when Options.TTL
// is zero.
const DefaultTTL = 15 * time.Minute

// Options configures a Manager. The zero value gets sane defaults.
type Options struct {
	// Queue bounds how many submitted jobs may wait for a worker;
	// submissions past it fail with ErrQueueFull. 0 means 16.
	Queue int
	// Workers is the number of concurrent job runners. 0 means 1 — one
	// background enrichment at a time, which keeps the default memory
	// footprint of clone-heavy apply jobs bounded.
	Workers int
	// TTL is how long finished jobs remain pollable. The two sentinels
	// are deliberate and distinct:
	//
	//	TTL > 0   retain for TTL; a background sweeper GCs expired jobs
	//	TTL == 0  DefaultTTL (15 minutes) — zero is "unset", never
	//	          "keep forever", so a zero-valued Options cannot leak
	//	          job records unboundedly
	//	TTL < 0   retain forever: GC is a no-op and Start launches no
	//	          sweeper goroutine
	TTL time.Duration
	// Obs receives queue depth, per-state transition counters and the
	// job duration histogram. nil disables instrumentation.
	Obs *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.Queue <= 0 {
		o.Queue = 16
	}
	if o.Workers <= 0 {
		o.Workers = 1
	}
	if o.TTL == 0 {
		o.TTL = DefaultTTL
	}
	return o
}

// ttlDisabled reports whether finished jobs are retained forever.
// After withDefaults the TTL is never zero, so "disabled" has exactly
// one spelling: negative.
func (m *Manager) ttlDisabled() bool { return m.opts.TTL < 0 }

// Fn is the work a job performs. It must honor ctx — the manager
// cancels it on DELETE and on shutdown — and return its result (any
// JSON-encodable value) or an error.
type Fn func(ctx context.Context) (any, error)

// Job is an immutable view of one job's state, safe to hold after the
// manager has moved on.
type Job struct {
	ID        string
	Kind      string // what the job does, e.g. "enrich"
	RequestID string // X-Request-ID of the submitting request
	Epoch     uint64 // snapshot epoch the job was submitted under
	Status    Status
	Created   time.Time
	Started   time.Time // zero until running
	Finished  time.Time // zero until terminal
	Result    any       // set when done
	Err       error     // set when failed (or cancelled mid-run)
}

// job is the mutable record behind a Job view, guarded by Manager.mu.
type job struct {
	Job
	fn        Fn
	cancel    context.CancelFunc // non-nil while running
	cancelled bool               // Cancel was requested
}

// Manager owns the queue, the workers and the job table.
type Manager struct {
	opts Options

	mu      sync.Mutex
	jobs    map[string]*job
	seq     int
	queue   chan *job
	root    context.Context
	started bool
	// sweeping records whether Start launched the TTL sweeper; it
	// stays false when the TTL is negative (retain forever). Exposed
	// via Sweeping so tests can assert the goroutine truly isn't
	// running, not just that GC declines to collect.
	sweeping bool

	wg sync.WaitGroup

	depth    *obs.Gauge
	duration *obs.Histogram
}

// New builds a manager. No goroutines run until Start.
func New(opts Options) *Manager {
	opts = opts.withDefaults()
	return &Manager{
		opts:     opts,
		jobs:     make(map[string]*job),
		queue:    make(chan *job, opts.Queue),
		depth:    opts.Obs.Gauge(QueueDepthMetric),
		duration: opts.Obs.Histogram(DurationMetric, nil),
	}
}

// Start launches the worker pool (and the TTL sweeper) under ctx.
// Cancelling ctx cancels every running job and stops the workers;
// Wait blocks until they have exited. Start is idempotent — only the
// first call takes effect.
func (m *Manager) Start(ctx context.Context) {
	m.mu.Lock()
	if m.started {
		m.mu.Unlock()
		return
	}
	m.started = true
	m.root = ctx
	m.sweeping = !m.ttlDisabled()
	sweep := m.sweeping
	m.mu.Unlock()
	for i := 0; i < m.opts.Workers; i++ {
		m.wg.Add(1)
		go m.worker(ctx)
	}
	if sweep {
		m.wg.Add(1)
		go m.sweeper(ctx)
	}
}

// Sweeping reports whether Start launched the background TTL sweeper.
// It is false before Start and forever false when Options.TTL is
// negative (retain-forever mode runs no sweeper at all).
func (m *Manager) Sweeping() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.sweeping
}

// Wait blocks until every worker has exited (after the Start context
// is cancelled). Useful for clean shutdown and leak-free tests.
func (m *Manager) Wait() { m.wg.Wait() }

// Submit enqueues fn. kind labels the work, requestID ties the job to
// the HTTP request that created it, and epoch records the snapshot
// version the job will run against. Fails fast with ErrQueueFull when
// the pending queue is at capacity and ErrNotStarted before Start.
func (m *Manager) Submit(kind, requestID string, epoch uint64, fn Fn) (Job, error) {
	m.mu.Lock()
	if !m.started {
		m.mu.Unlock()
		return Job{}, ErrNotStarted
	}
	m.seq++
	j := &job{
		Job: Job{
			ID:        fmt.Sprintf("j-%06d", m.seq),
			Kind:      kind,
			RequestID: requestID,
			Epoch:     epoch,
			Status:    StatusQueued,
			Created:   time.Now(),
		},
		fn: fn,
	}
	select {
	case m.queue <- j:
	default:
		m.seq-- // the rejected job never existed
		m.mu.Unlock()
		return Job{}, fmt.Errorf("%w: %d pending", ErrQueueFull, m.opts.Queue)
	}
	m.jobs[j.ID] = j
	m.depth.Add(1)
	m.opts.Obs.Counter(JobsMetric, "status", string(StatusQueued)).Inc()
	view := j.Job
	m.mu.Unlock()
	return view, nil
}

// Get returns the job view for id.
func (m *Manager) Get(id string) (Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return Job{}, false
	}
	return j.Job, true
}

// ValidStatus reports whether s is one of the five lifecycle states —
// the HTTP layer validates ?status= filters against it so a typo is a
// 400, not an empty page.
func ValidStatus(s Status) bool {
	switch s {
	case StatusQueued, StatusRunning, StatusDone, StatusFailed, StatusCancelled:
		return true
	}
	return false
}

// Page returns up to limit retained jobs with ID strictly after the
// `after` cursor, in ascending ID order, optionally filtered to one
// status ("" keeps all), plus whether more matching jobs remain past
// the returned page. Job IDs are zero-padded sequence numbers, so ID
// order is submission order and an `after` cursor naming a job that
// has since been swept by TTL GC still resumes at exactly the right
// position — the cursor is a position in the ID space, not a reference
// that can dangle. limit <= 0 means no bound.
func (m *Manager) Page(after string, limit int, status Status) ([]Job, bool) {
	m.mu.Lock()
	matched := make([]Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		if j.ID <= after {
			continue
		}
		if status != "" && j.Status != status {
			continue
		}
		matched = append(matched, j.Job)
	}
	m.mu.Unlock()
	sort.Slice(matched, func(i, k int) bool { return matched[i].ID < matched[k].ID })
	if limit > 0 && len(matched) > limit {
		return matched[:limit], true
	}
	return matched, false
}

// Cancel requests cancellation of id. A queued job is marked
// cancelled immediately (the worker will skip it); a running job has
// its context cancelled and reaches the cancelled status when its Fn
// returns. Cancelling a finished job returns ErrFinished; an unknown
// id, ErrNotFound.
func (m *Manager) Cancel(id string) (Job, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return Job{}, ErrNotFound
	}
	if j.Status.Terminal() {
		view := j.Job
		m.mu.Unlock()
		return view, ErrFinished
	}
	j.cancelled = true
	switch j.Status {
	case StatusQueued:
		j.Status = StatusCancelled
		j.Finished = time.Now()
		m.depth.Add(-1)
		m.opts.Obs.Counter(JobsMetric, "status", string(StatusCancelled)).Inc()
	case StatusRunning:
		j.cancel() // the worker finalizes the status when Fn returns
	}
	view := j.Job
	m.mu.Unlock()
	return view, nil
}

// GC sweeps finished jobs whose terminal timestamp is older than
// Options.TTL, returning how many were removed. The background
// sweeper calls it periodically; tests call it directly.
func (m *Manager) GC() int {
	if m.ttlDisabled() {
		return 0
	}
	cutoff := time.Now().Add(-m.opts.TTL)
	m.mu.Lock()
	defer m.mu.Unlock()
	removed := 0
	for id, j := range m.jobs {
		if j.Status.Terminal() && !j.Finished.IsZero() && j.Finished.Before(cutoff) {
			delete(m.jobs, id)
			removed++
		}
	}
	return removed
}

// sweeper periodically garbage-collects expired finished jobs.
func (m *Manager) sweeper(ctx context.Context) {
	defer m.wg.Done()
	interval := m.opts.TTL / 4
	if interval < time.Second {
		interval = time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			m.GC()
		}
	}
}

// worker drains the queue until ctx is done.
func (m *Manager) worker(ctx context.Context) {
	defer m.wg.Done()
	for {
		select {
		case <-ctx.Done():
			return
		case j := <-m.queue:
			m.run(ctx, j)
		}
	}
}

// run executes one dequeued job through its lifecycle. Each
// transition's metrics are recorded before m.mu is released, so a
// caller that sees a status through Get also sees its counts.
func (m *Manager) run(ctx context.Context, j *job) {
	m.mu.Lock()
	if j.Status != StatusQueued {
		// Cancelled while waiting; its depth decrement and transition
		// counter were recorded by Cancel.
		m.mu.Unlock()
		return
	}
	jctx, cancel := context.WithCancel(ctx)
	j.cancel = cancel
	j.Status = StatusRunning
	j.Started = time.Now()
	m.depth.Add(-1)
	m.opts.Obs.Counter(JobsMetric, "status", string(StatusRunning)).Inc()
	m.mu.Unlock()

	result, err := j.fn(jctx)
	cancel()

	m.mu.Lock()
	j.cancel = nil
	j.Finished = time.Now()
	switch {
	case err == nil:
		j.Status = StatusDone
		j.Result = result
	case j.cancelled && errors.Is(err, context.Canceled):
		j.Status = StatusCancelled
		j.Err = err
	default:
		j.Status = StatusFailed
		j.Err = err
	}
	m.duration.Observe(j.Finished.Sub(j.Started).Seconds())
	m.opts.Obs.Counter(JobsMetric, "status", string(j.Status)).Inc()
	m.mu.Unlock()
}
