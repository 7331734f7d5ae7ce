// Package jobs is the async job manager behind syncd's /v1/jobs API: a
// registry of long-running computations (giant-mesh analyses,
// Monte-Carlo sweeps) that run in the background under bounded
// concurrency and publish partial results as an ordered event stream
// instead of holding an HTTP request open against its deadline.
//
// The state machine is deliberately small:
//
//	pending ──► running ──► done
//	   │           ├──────► failed
//	   └───────────┴──────► canceled
//
// pending→running happens when a worker slot frees up; running reaches
// exactly one terminal state. Cancel is legal from pending (the job
// never starts) and from running (the job's context is cancelled and
// the run function returns); terminal states are frozen — a second
// cancel, a late publish, or a late completion against a canceled job
// is a no-op, never a resurrection.
//
// Every mutation appends an Event with a monotonically increasing
// sequence number. Subscribers replay the ordered history and then
// follow the live tail, so a client that connects mid-run sees exactly
// the same stream as one connected from the start — the property that
// makes the NDJSON /stream endpoint resumable and testable.
package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// State is a job's lifecycle position.
type State string

const (
	Pending  State = "pending"
	Running  State = "running"
	Done     State = "done"
	Failed   State = "failed"
	Canceled State = "canceled"
)

// Terminal reports whether s is a final state.
func (s State) Terminal() bool { return s == Done || s == Failed || s == Canceled }

// ErrExists is returned by Create for a duplicate job ID (HTTP 409
// job_exists at the service layer).
var ErrExists = errors.New("jobs: job already exists")

// ErrNotFound is returned by Get/Cancel for an unknown job ID (HTTP 404
// job_not_found at the service layer).
var ErrNotFound = errors.New("jobs: no such job")

// ErrFull is returned by Create when the manager already holds its
// maximum number of unfinished jobs.
var ErrFull = errors.New("jobs: too many active jobs")

// Event is one line of a job's ordered stream. Seq increases by one per
// event starting at 0; the first event announces the running state and
// the last carries a terminal state with the final result or error.
type Event struct {
	Seq     int64   `json:"seq"`
	State   State   `json:"state"`
	Elapsed float64 `json:"elapsed_s"`
	// Progress fields, set by the run function via Publish.
	Done    int             `json:"trials_done,omitempty"`
	Total   int             `json:"trials_total,omitempty"`
	Partial json.RawMessage `json:"partial,omitempty"`
	// Terminal fields.
	Result json.RawMessage `json:"result,omitempty"`
	Error  string          `json:"error,omitempty"`
	Reason string          `json:"reason,omitempty"`
}

// Snapshot is a job's point-in-time view, the body of GET /v1/jobs/{id}.
type Snapshot struct {
	ID       string          `json:"id"`
	Kind     string          `json:"kind"`
	State    State           `json:"state"`
	Created  time.Time       `json:"created"`
	Started  *time.Time      `json:"started,omitempty"`
	Finished *time.Time      `json:"finished,omitempty"`
	Events   int64           `json:"events"`
	Done     int             `json:"trials_done,omitempty"`
	Total    int             `json:"trials_total,omitempty"`
	Partial  json.RawMessage `json:"partial,omitempty"`
	Result   json.RawMessage `json:"result,omitempty"`
	Error    string          `json:"error,omitempty"`
	Request  json.RawMessage `json:"request,omitempty"`
}

// RunFunc is the job body. It runs on a manager worker with a context
// that is cancelled by Cancel (and by manager Close), publishes
// progress through job.Publish, and returns either the final result or
// an error. reason, when non-empty, is the machine-readable token
// attached to a failure event (e.g. "array_too_large").
type RunFunc func(ctx context.Context, job *Job) (result json.RawMessage, reason string, err error)

// Job is one tracked computation. All fields behind mu; accessors take
// snapshots.
type Job struct {
	id      string
	kind    string
	request json.RawMessage
	run     RunFunc

	mu       sync.Mutex
	state    State
	events   []Event
	subs     map[int64]chan Event // subscriber ID → live tail channel
	nextSub  int64
	created  time.Time
	started  time.Time
	finished time.Time
	done     int
	total    int
	partial  json.RawMessage
	result   json.RawMessage
	errMsg   string

	cancel context.CancelFunc // set when the manager admits the job
}

// append records ev (stamping Seq and Elapsed) and fans it out to live
// subscribers. Callers hold j.mu.
func (j *Job) appendLocked(ev Event) {
	ev.Seq = int64(len(j.events))
	ev.Elapsed = round3(time.Since(j.created).Seconds())
	j.events = append(j.events, ev)
	for _, ch := range j.subs {
		// Subscriber channels are buffered generously; a subscriber that
		// still falls behind loses its slot rather than stalling the job.
		select {
		case ch <- ev:
		default:
		}
	}
}

func round3(v float64) float64 { return float64(int64(v*1000)) / 1000 }

// Publish emits a progress event carrying done/total counters and an
// optional partial-result document. Publishing after the job reached a
// terminal state is a no-op (a cancelled run may race its last chunk).
func (j *Job) Publish(done, total int, partial json.RawMessage) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return
	}
	j.done, j.total, j.partial = done, total, partial
	j.appendLocked(Event{State: j.state, Done: done, Total: total, Partial: partial})
}

// Subscribe returns the job's full event history and a channel that
// receives every event appended after it, opening with no gap or
// duplication. close unsubscribes; the channel is closed after the
// job's terminal event has been delivered.
func (j *Job) Subscribe() (history []Event, live <-chan Event, cancel func()) {
	j.mu.Lock()
	defer j.mu.Unlock()
	history = append([]Event(nil), j.events...)
	if j.state.Terminal() {
		ch := make(chan Event)
		close(ch)
		return history, ch, func() {}
	}
	id := j.nextSub
	j.nextSub++
	ch := make(chan Event, 256)
	j.subs[id] = ch
	return history, ch, func() {
		j.mu.Lock()
		defer j.mu.Unlock()
		if _, ok := j.subs[id]; ok {
			delete(j.subs, id)
			close(ch)
		}
	}
}

// finish moves the job to a terminal state, emits the terminal event,
// and closes every subscriber channel. A second finish is a no-op.
func (j *Job) finish(state State, result json.RawMessage, reason, errMsg string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return
	}
	j.state = state
	j.finished = time.Now()
	j.result = result
	j.errMsg = errMsg
	j.appendLocked(Event{State: state, Done: j.done, Total: j.total, Result: result, Error: errMsg, Reason: reason})
	for id, ch := range j.subs {
		delete(j.subs, id)
		close(ch)
	}
}

// Snapshot returns the job's current view.
func (j *Job) Snapshot() Snapshot {
	j.mu.Lock()
	defer j.mu.Unlock()
	s := Snapshot{
		ID: j.id, Kind: j.kind, State: j.state, Created: j.created,
		Events: int64(len(j.events)),
		Done:   j.done, Total: j.total,
		Partial: j.partial, Result: j.result, Error: j.errMsg,
		Request: j.request,
	}
	if !j.started.IsZero() {
		t := j.started
		s.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		s.Finished = &t
	}
	return s
}

// State returns the job's current state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Config bounds a Manager.
type Config struct {
	// Workers bounds concurrently running jobs. Default 1: job bodies
	// already fan out internally over the service worker pool, so one
	// giant analysis at a time keeps memory bounded.
	Workers int
	// MaxJobs bounds unfinished (pending+running) jobs. Default 64.
	MaxJobs int
	// Retain bounds how many finished jobs are kept for GET before the
	// oldest are dropped. Default 256.
	Retain int
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 64
	}
	if c.Retain <= 0 {
		c.Retain = 256
	}
	return c
}

// Manager owns the job registry and the worker slots that run them.
type Manager struct {
	cfg  Config
	base context.Context
	stop context.CancelFunc
	sem  chan struct{} // worker slots

	mu       sync.Mutex
	jobs     map[string]*Job
	finished []string // finished job IDs, oldest first, for retention
	wg       sync.WaitGroup

	// Lifecycle counters: live gauges for the non-terminal states and
	// cumulative totals for the terminal ones. Unlike Stats (a scan of
	// currently tracked jobs), the totals survive retention, so metrics
	// never undercount a long run's finished work.
	pending       atomic.Int64
	running       atomic.Int64
	doneTotal     atomic.Int64
	failedTotal   atomic.Int64
	canceledTotal atomic.Int64
}

// Counts is the manager's lifecycle counter snapshot: pending/running
// are gauges of current jobs, the *Total fields count every job that
// ever reached that terminal state (retention never decrements them).
type Counts struct {
	Pending       int64 `json:"pending"`
	Running       int64 `json:"running"`
	DoneTotal     int64 `json:"done_total"`
	FailedTotal   int64 `json:"failed_total"`
	CanceledTotal int64 `json:"canceled_total"`
}

// Counts returns the lifecycle counters.
func (m *Manager) Counts() Counts {
	return Counts{
		Pending:       m.pending.Load(),
		Running:       m.running.Load(),
		DoneTotal:     m.doneTotal.Load(),
		FailedTotal:   m.failedTotal.Load(),
		CanceledTotal: m.canceledTotal.Load(),
	}
}

// NewManager builds a Manager with cfg (zero fields defaulted).
func NewManager(cfg Config) *Manager {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	return &Manager{
		cfg:  cfg,
		base: ctx,
		stop: cancel,
		sem:  make(chan struct{}, cfg.Workers),
		jobs: make(map[string]*Job),
	}
}

// Create registers a job and schedules it. The job starts as pending
// and moves to running when a worker slot frees up. Duplicate IDs
// return ErrExists; a full manager returns ErrFull.
func (m *Manager) Create(id, kind string, request json.RawMessage, run RunFunc) (*Job, error) {
	if id == "" {
		return nil, fmt.Errorf("jobs: job ID must be non-empty")
	}
	m.mu.Lock()
	if _, ok := m.jobs[id]; ok {
		m.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrExists, id)
	}
	active := 0
	for _, j := range m.jobs {
		if !j.State().Terminal() {
			active++
		}
	}
	if active >= m.cfg.MaxJobs {
		m.mu.Unlock()
		return nil, fmt.Errorf("%w: %d unfinished", ErrFull, active)
	}
	ctx, cancel := context.WithCancel(m.base)
	j := &Job{
		id: id, kind: kind, request: request, run: run,
		state: Pending, created: time.Now(),
		subs:   make(map[int64]chan Event),
		cancel: cancel,
	}
	m.jobs[id] = j
	m.wg.Add(1)
	m.pending.Add(1)
	m.mu.Unlock()

	go func() {
		defer m.wg.Done()
		defer cancel()
		select {
		case m.sem <- struct{}{}:
			defer func() { <-m.sem }()
		case <-ctx.Done():
			// Cancelled (or manager closed) while pending: never ran.
			j.finish(Canceled, nil, "canceled", "canceled before start")
			m.pending.Add(-1)
			m.canceledTotal.Add(1)
			m.retire(j)
			return
		}
		j.mu.Lock()
		if j.state.Terminal() { // cancelled between admit and slot
			j.mu.Unlock()
			m.pending.Add(-1)
			m.canceledTotal.Add(1)
			m.retire(j)
			return
		}
		j.state = Running
		j.started = time.Now()
		j.appendLocked(Event{State: Running})
		j.mu.Unlock()
		m.pending.Add(-1)
		m.running.Add(1)

		result, reason, err := j.run(ctx, j)
		m.running.Add(-1)
		switch {
		case err == nil:
			j.finish(Done, result, "", "")
			m.doneTotal.Add(1)
		case errors.Is(err, context.Canceled) || ctx.Err() != nil:
			j.finish(Canceled, nil, "canceled", "canceled")
			m.canceledTotal.Add(1)
		default:
			if reason == "" {
				reason = "job_failed"
			}
			j.finish(Failed, nil, reason, err.Error())
			m.failedTotal.Add(1)
		}
		m.retire(j)
	}()
	return j, nil
}

// retire records j as finished and enforces the retention bound.
func (m *Manager) retire(j *Job) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.finished = append(m.finished, j.id)
	for len(m.finished) > m.cfg.Retain {
		oldest := m.finished[0]
		m.finished = m.finished[1:]
		delete(m.jobs, oldest)
	}
}

// Get returns the job with id, or ErrNotFound.
func (m *Manager) Get(id string) (*Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return j, nil
}

// Cancel requests cancellation of the job with id. Cancelling a
// terminal job is a no-op that still succeeds (idempotent deletes).
func (m *Manager) Cancel(id string) (*Job, error) {
	j, err := m.Get(id)
	if err != nil {
		return nil, err
	}
	j.cancel()
	return j, nil
}

// List returns snapshots of every tracked job, newest first.
func (m *Manager) List() []Snapshot {
	m.mu.Lock()
	jobs := make([]*Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		jobs = append(jobs, j)
	}
	m.mu.Unlock()
	out := make([]Snapshot, len(jobs))
	for i, j := range jobs {
		out[i] = j.Snapshot()
	}
	sort.Slice(out, func(a, b int) bool {
		if !out[a].Created.Equal(out[b].Created) {
			return out[a].Created.After(out[b].Created)
		}
		return out[a].ID < out[b].ID
	})
	return out
}

// Stats counts jobs by state, for metrics exposition.
func (m *Manager) Stats() map[State]int {
	m.mu.Lock()
	jobs := make([]*Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		jobs = append(jobs, j)
	}
	m.mu.Unlock()
	counts := make(map[State]int, 5)
	for _, j := range jobs {
		counts[j.State()]++
	}
	return counts
}

// Close cancels every unfinished job and waits for their run functions
// to return.
func (m *Manager) Close() {
	m.stop()
	m.wg.Wait()
}
