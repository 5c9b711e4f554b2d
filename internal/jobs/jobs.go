// Package jobs runs heavyweight work — enrichment pipeline runs —
// off-request, so interactive endpoints stay fast while a multi-second
// analysis grinds in the background (the deployment shape of NCBO's
// Annotator/Recommender services). The Manager runs jobs through an
// explicit lifecycle:
//
//	queued → running → done | failed | cancelled
//
// Jobs wait in one FIFO queue. Submissions past the queue bound fail
// fast with ErrQueueFull (429 at the HTTP layer) instead of buffering
// unboundedly. Runner goroutines are demand-driven, as in
// internal/batch: Submit starts one while fewer than Options.Workers
// are live and hands it the new job, and a runner exits when the queue
// is empty, so an idle manager owns no goroutine. Each running job
// gets its own context derived from the root context New takes, so a
// job can be cancelled individually (DELETE /v1/jobs/{id}) and every
// job dies with the server's root context on shutdown. Cancelling a
// queued job takes it out of the queue at once. A finished job stays
// pollable for Options.TTL, then a timer removes it.
//
// The package is deliberately ignorant of the pipeline: a job is just
// a func(ctx) (any, error). The server closes over the snapshot a job
// was submitted under, which is what makes job runs snapshot-isolated.
package jobs

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
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
	// ErrNotFound: no job with that ID (possibly already expired
	// after its TTL).
	ErrNotFound = errors.New("jobs: no such job")
	// ErrFinished: Cancel on a job that already reached a terminal
	// status.
	ErrFinished = errors.New("jobs: job already finished")
)

// Metric names, exposed so the server's exposition test can pin them.
const (
	// QueueDepthMetric gauges jobs currently waiting (queued, not yet
	// picked up by a runner).
	QueueDepthMetric = "bioenrich_jobs_queue_depth"
	// JobsMetric counts lifecycle transitions by state label: how many
	// jobs ever entered queued/running/done/failed/cancelled.
	JobsMetric = "bioenrich_jobs_total"
	// DurationMetric is the per-job run duration histogram (seconds,
	// measured from runner pickup to completion).
	DurationMetric = "bioenrich_job_duration_seconds"
)

// DefaultTTL is the finished-job retention applied when Options.TTL
// is zero.
const DefaultTTL = 15 * time.Minute

// Options configures a Manager. The zero value gets sane defaults.
type Options struct {
	// Queue bounds how many submitted jobs may wait for a runner;
	// submissions past it fail with ErrQueueFull. 0 means 16.
	Queue int
	// Workers is the number of concurrent job runners. 0 means 1 — one
	// background enrichment at a time, which keeps the default memory
	// footprint of clone-heavy apply jobs bounded.
	Workers int
	// TTL is how long finished jobs remain pollable. The two sentinels
	// are deliberate and distinct:
	//
	//	TTL > 0   retain for TTL after the job finishes, then remove it
	//	TTL == 0  DefaultTTL (15 minutes) — zero is "unset", never
	//	          "keep forever", so a zero-valued Options cannot leak
	//	          job records unboundedly
	//	TTL < 0   retain forever
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

	seq int // the sequence number ID carries; jobs list in its order
}

// job is the mutable record behind a Job view, guarded by Manager.mu.
type job struct {
	Job
	fn        Fn
	cancel    context.CancelFunc // non-nil while running
	cancelled bool               // Cancel was requested
}

// Manager owns the queue, the runners and the job table.
type Manager struct {
	opts Options
	root context.Context

	mu      sync.Mutex
	jobs    map[string]*job
	seq     int
	queue   []*job // queued jobs, oldest first
	runners int    // live runner goroutines

	wg sync.WaitGroup // tracks the live runners for Wait

	depth    *obs.Gauge
	duration *obs.Histogram
}

// New builds a manager whose jobs run under root: cancelling root
// cancels every running job, and no runner takes a queued job after
// that. No goroutine runs until a job is submitted.
func New(root context.Context, opts Options) *Manager {
	opts = opts.withDefaults()
	return &Manager{
		opts:     opts,
		root:     root,
		jobs:     make(map[string]*job),
		depth:    opts.Obs.Gauge(QueueDepthMetric),
		duration: opts.Obs.Histogram(DurationMetric, nil),
	}
}

// Wait blocks until every runner has exited: once the queue has
// drained, or once the root context is cancelled and the running jobs
// have returned. cmd/serve calls it at shutdown after the HTTP drain.
func (m *Manager) Wait() { m.wg.Wait() }

// formatID renders the job ID for sequence number seq.
func formatID(seq int) string { return fmt.Sprintf("j-%06d", seq) }

// parseID returns the sequence number a job ID carries, and false for
// any string formatID never returns.
func parseID(id string) (int, bool) {
	seq, err := strconv.Atoi(strings.TrimPrefix(id, "j-"))
	if err != nil || seq < 1 || formatID(seq) != id {
		return 0, false
	}
	return seq, true
}

// ValidID reports whether id has the form of a job ID — the HTTP layer
// validates page-token cursors against it, so a forged cursor is a
// 400, not a position.
func ValidID(id string) bool {
	_, ok := parseID(id)
	return ok
}

// Submit enqueues fn. kind labels the work, requestID ties the job to
// the HTTP request that created it, and epoch records the snapshot
// version the job will run against. It returns the job as submitted
// (queued), and fails fast with ErrQueueFull when the pending queue is
// at capacity.
func (m *Manager) Submit(kind, requestID string, epoch uint64, fn Fn) (Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	// A new runner takes the job directly, so it never occupies a
	// queue slot. None starts once the root context is done: the
	// runners' WaitGroup must not grow after Wait may have begun.
	spawn := m.runners < m.opts.Workers && m.root.Err() == nil
	if !spawn && len(m.queue) >= m.opts.Queue {
		return Job{}, fmt.Errorf("%w: %d pending", ErrQueueFull, m.opts.Queue)
	}
	m.seq++
	j := &job{
		Job: Job{
			ID:        formatID(m.seq),
			Kind:      kind,
			RequestID: requestID,
			Epoch:     epoch,
			Status:    StatusQueued,
			Created:   time.Now(),
			seq:       m.seq,
		},
		fn: fn,
	}
	m.jobs[j.ID] = j
	m.opts.Obs.Counter(JobsMetric, "status", string(StatusQueued)).Inc()
	view := j.Job
	if spawn {
		m.runners++
		m.wg.Add(1)
		go m.runner(m.start(j), j)
	} else {
		m.queue = append(m.queue, j)
		m.depth.Set(float64(len(m.queue)))
	}
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

// Page returns up to limit retained jobs submitted after the job the
// `after` cursor names ("", or a string that is not a job ID, starts
// at the first job), in submission order, optionally filtered to one
// status ("" keeps all), plus whether more matching jobs remain past
// the returned page. Jobs and the cursor compare by sequence number,
// so the order holds past j-999999, and a cursor naming a job that has
// since expired still resumes at exactly the right position: it is a
// position in the ID space, not a reference that can dangle.
// limit <= 0 means no bound.
func (m *Manager) Page(after string, limit int, status Status) ([]Job, bool) {
	from, _ := parseID(after)
	m.mu.Lock()
	matched := make([]Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		if j.seq <= from {
			continue
		}
		if status != "" && j.Status != status {
			continue
		}
		matched = append(matched, j.Job)
	}
	m.mu.Unlock()
	sort.Slice(matched, func(i, k int) bool { return matched[i].seq < matched[k].seq })
	if limit > 0 && len(matched) > limit {
		return matched[:limit], true
	}
	return matched, false
}

// Cancel requests cancellation of id. A queued job leaves the queue
// and is cancelled at once, so its slot is free for the next Submit; a
// running job has its context cancelled and reaches the cancelled
// status when its Fn returns. Cancelling a finished job returns
// ErrFinished; an unknown id, ErrNotFound.
func (m *Manager) Cancel(id string) (Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return Job{}, ErrNotFound
	}
	if j.Status.Terminal() {
		return j.Job, ErrFinished
	}
	j.cancelled = true
	switch j.Status {
	case StatusQueued:
		i := slices.Index(m.queue, j)
		m.queue = slices.Delete(m.queue, i, i+1)
		m.depth.Set(float64(len(m.queue)))
		m.finish(j, StatusCancelled)
	case StatusRunning:
		j.cancel() // the runner finalizes the status when Fn returns
	}
	return j.Job, nil
}

// start moves j to running under m.mu and returns the context its Fn
// runs under. Each transition's metrics are recorded before m.mu is
// released, so a caller that sees a status through Get also sees its
// counts.
func (m *Manager) start(j *job) context.Context {
	ctx, cancel := context.WithCancel(m.root)
	j.cancel = cancel
	j.Status = StatusRunning
	j.Started = time.Now()
	m.opts.Obs.Counter(JobsMetric, "status", string(StatusRunning)).Inc()
	return ctx
}

// finish records j's terminal status under m.mu and, unless the TTL
// is negative, schedules the job's removal once the TTL has passed.
// It drops j's Fn, so a finished job no longer holds what its closure
// captured (the snapshot it ran on, and what that snapshot keeps).
func (m *Manager) finish(j *job, status Status) {
	j.fn = nil
	j.Status = status
	j.Finished = time.Now()
	m.opts.Obs.Counter(JobsMetric, "status", string(status)).Inc()
	if m.opts.TTL > 0 {
		time.AfterFunc(m.opts.TTL, func() {
			m.mu.Lock()
			delete(m.jobs, j.ID)
			m.mu.Unlock()
		})
	}
}

// runner runs j, which start has already marked running, then takes
// queued jobs oldest first until the queue is empty or the root
// context is done.
func (m *Manager) runner(ctx context.Context, j *job) {
	defer m.wg.Done()
	for j != nil {
		ctx, j = m.run(ctx, j)
	}
}

// run executes one running job, records its outcome, and returns the
// next queued job, already started, or a nil job when the runner
// exits.
func (m *Manager) run(ctx context.Context, j *job) (context.Context, *job) {
	result, err := j.fn(ctx)
	j.cancel()

	m.mu.Lock()
	defer m.mu.Unlock()
	j.cancel = nil
	switch {
	case err == nil:
		j.Result = result
		m.finish(j, StatusDone)
	case j.cancelled && errors.Is(err, context.Canceled):
		j.Err = err
		m.finish(j, StatusCancelled)
	default:
		j.Err = err
		m.finish(j, StatusFailed)
	}
	m.duration.Observe(j.Finished.Sub(j.Started).Seconds())

	if len(m.queue) == 0 || m.root.Err() != nil {
		m.runners--
		return nil, nil
	}
	next := m.queue[0]
	m.queue = slices.Delete(m.queue, 0, 1)
	m.depth.Set(float64(len(m.queue)))
	return m.start(next), next
}
