package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// collect drains a subscription (history + live tail) until the channel
// closes, returning the full ordered stream.
func collect(history []Event, live <-chan Event) []Event {
	out := append([]Event(nil), history...)
	for ev := range live {
		out = append(out, ev)
	}
	return out
}

func TestJobLifecycleDone(t *testing.T) {
	m := NewManager(Config{})
	defer m.Close()

	started := make(chan struct{})
	release := make(chan struct{})
	j, err := m.Create("job-1", "test", json.RawMessage(`{"n":1}`), func(ctx context.Context, job *Job) (json.RawMessage, string, error) {
		close(started)
		for i := 1; i <= 3; i++ {
			job.Publish(i, 3, json.RawMessage(fmt.Sprintf(`{"chunk":%d}`, i)))
		}
		<-release
		return json.RawMessage(`{"answer":42}`), "", nil
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	history, live, cancel := j.Subscribe()
	defer cancel()
	close(release)

	events := collect(history, live)
	if len(events) < 5 { // running + 3 progress + done
		t.Fatalf("want >= 5 events, got %d: %+v", len(events), events)
	}
	for i, ev := range events {
		if ev.Seq != int64(i) {
			t.Fatalf("event %d has seq %d; stream must be gapless and ordered", i, ev.Seq)
		}
	}
	if events[0].State != Running {
		t.Fatalf("first event state %q, want running", events[0].State)
	}
	last := events[len(events)-1]
	if last.State != Done || string(last.Result) != `{"answer":42}` {
		t.Fatalf("terminal event %+v", last)
	}
	snap := j.Snapshot()
	if snap.State != Done || snap.Started == nil || snap.Finished == nil {
		t.Fatalf("snapshot %+v", snap)
	}
}

func TestJobFailureCarriesReason(t *testing.T) {
	m := NewManager(Config{})
	defer m.Close()
	j, err := m.Create("job-f", "test", nil, func(ctx context.Context, job *Job) (json.RawMessage, string, error) {
		return nil, "array_too_large", errors.New("kernel would need 20 GiB")
	})
	if err != nil {
		t.Fatal(err)
	}
	history, live, cancel := j.Subscribe()
	defer cancel()
	events := collect(history, live)
	last := events[len(events)-1]
	if last.State != Failed || last.Reason != "array_too_large" || last.Error == "" {
		t.Fatalf("terminal event %+v", last)
	}
}

func TestJobCancelRunning(t *testing.T) {
	m := NewManager(Config{})
	defer m.Close()
	started := make(chan struct{})
	j, err := m.Create("job-c", "test", nil, func(ctx context.Context, job *Job) (json.RawMessage, string, error) {
		close(started)
		<-ctx.Done()
		return nil, "", ctx.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := m.Cancel("job-c"); err != nil {
		t.Fatal(err)
	}
	history, live, cancel := j.Subscribe()
	defer cancel()
	events := collect(history, live)
	last := events[len(events)-1]
	if last.State != Canceled {
		t.Fatalf("terminal state %q, want canceled", last.State)
	}
	// Terminal states are frozen: a publish or second finish after
	// cancellation must not resurrect the job.
	j.Publish(99, 100, nil)
	j.finish(Done, json.RawMessage(`{}`), "", "")
	if s := j.State(); s != Canceled {
		t.Fatalf("terminal state mutated to %q", s)
	}
	if n := j.Snapshot().Events; n != int64(len(events)) {
		t.Fatalf("events appended after terminal state: %d -> %d", len(events), n)
	}
}

func TestJobCancelPending(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	defer m.Close()
	block := make(chan struct{})
	hog, err := m.Create("job-hog", "test", nil, func(ctx context.Context, job *Job) (json.RawMessage, string, error) {
		<-block
		return nil, "", nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the hog owns the single worker slot; otherwise the
	// second job can race it to the slot and complete before Cancel.
	for hog.State() != Running {
		time.Sleep(time.Millisecond)
	}
	ran := false
	pending, err := m.Create("job-queued", "test", nil, func(ctx context.Context, job *Job) (json.RawMessage, string, error) {
		ran = true
		return nil, "", nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Cancel("job-queued"); err != nil {
		t.Fatal(err)
	}
	history, live, cancel := pending.Subscribe()
	defer cancel()
	events := collect(history, live)
	if last := events[len(events)-1]; last.State != Canceled {
		t.Fatalf("pending job terminal state %q", last.State)
	}
	if ran {
		t.Fatal("cancelled pending job must never run")
	}
	close(block)
}

func TestCreateDuplicateAndMissing(t *testing.T) {
	m := NewManager(Config{})
	defer m.Close()
	run := func(ctx context.Context, job *Job) (json.RawMessage, string, error) { return nil, "", nil }
	if _, err := m.Create("dup", "test", nil, run); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create("dup", "test", nil, run); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate create: %v, want ErrExists", err)
	}
	if _, err := m.Get("ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing get: %v, want ErrNotFound", err)
	}
	if _, err := m.Cancel("ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing cancel: %v, want ErrNotFound", err)
	}
	if _, err := m.Create("", "test", nil, run); err == nil {
		t.Fatal("empty ID must be rejected")
	}
}

func TestMaxJobsBound(t *testing.T) {
	m := NewManager(Config{Workers: 1, MaxJobs: 2})
	defer m.Close()
	block := make(chan struct{})
	run := func(ctx context.Context, job *Job) (json.RawMessage, string, error) {
		select {
		case <-block:
		case <-ctx.Done():
		}
		return nil, "", ctx.Err()
	}
	if _, err := m.Create("a", "test", nil, run); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create("b", "test", nil, run); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create("c", "test", nil, run); !errors.Is(err, ErrFull) {
		t.Fatalf("over-limit create: %v, want ErrFull", err)
	}
	close(block)
}

// A subscriber attaching mid-run must see the identical stream a
// from-the-start subscriber sees: replayed history plus live tail, with
// no gap and no duplicate.
func TestSubscribeMidRunSeesFullStream(t *testing.T) {
	m := NewManager(Config{})
	defer m.Close()
	mid := make(chan struct{})
	proceed := make(chan struct{})
	j, err := m.Create("job-s", "test", nil, func(ctx context.Context, job *Job) (json.RawMessage, string, error) {
		for i := 1; i <= 2; i++ {
			job.Publish(i, 4, nil)
		}
		close(mid)
		<-proceed
		for i := 3; i <= 4; i++ {
			job.Publish(i, 4, nil)
		}
		return json.RawMessage(`{}`), "", nil
	})
	if err != nil {
		t.Fatal(err)
	}
	<-mid
	history, live, cancel := j.Subscribe()
	defer cancel()
	if len(history) < 3 { // running + 2 progress
		t.Fatalf("mid-run history too short: %+v", history)
	}
	close(proceed)
	events := collect(history, live)
	for i, ev := range events {
		if ev.Seq != int64(i) {
			t.Fatalf("mid-run subscriber saw gap at %d: %+v", i, events)
		}
	}
	if events[len(events)-1].State != Done {
		t.Fatalf("stream must end with the terminal event: %+v", events)
	}
}

// A terminal job's Subscribe returns the full history and an
// already-closed channel, so /stream on a finished job replays and ends.
func TestSubscribeAfterTerminal(t *testing.T) {
	m := NewManager(Config{})
	defer m.Close()
	j, err := m.Create("job-t", "test", nil, func(ctx context.Context, job *Job) (json.RawMessage, string, error) {
		job.Publish(1, 1, nil)
		return json.RawMessage(`{"v":1}`), "", nil
	})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, j)
	history, live, cancel := j.Subscribe()
	defer cancel()
	if _, open := <-live; open {
		t.Fatal("live channel for a terminal job must be closed")
	}
	if len(history) != 3 || history[len(history)-1].State != Done {
		t.Fatalf("terminal history %+v", history)
	}
}

func TestRetentionDropsOldest(t *testing.T) {
	m := NewManager(Config{Retain: 2})
	defer m.Close()
	run := func(ctx context.Context, job *Job) (json.RawMessage, string, error) { return nil, "", nil }
	for i := 0; i < 4; i++ {
		j, err := m.Create(fmt.Sprintf("job-%d", i), "test", nil, run)
		if err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, j)
	}
	m.mu.Lock()
	n := len(m.jobs)
	m.mu.Unlock()
	if n != 2 {
		t.Fatalf("retention kept %d jobs, want 2", n)
	}
	if _, err := m.Get("job-0"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("oldest job should be dropped, got %v", err)
	}
}

func TestManagerCloseCancelsAll(t *testing.T) {
	m := NewManager(Config{Workers: 4})
	var wg sync.WaitGroup
	jobsList := make([]*Job, 3)
	for i := range jobsList {
		wg.Add(1)
		j, err := m.Create(fmt.Sprintf("job-%d", i), "test", nil, func(ctx context.Context, job *Job) (json.RawMessage, string, error) {
			wg.Done()
			<-ctx.Done()
			return nil, "", ctx.Err()
		})
		if err != nil {
			t.Fatal(err)
		}
		jobsList[i] = j
	}
	wg.Wait()
	m.Close()
	for _, j := range jobsList {
		if s := j.State(); s != Canceled {
			t.Fatalf("job %s state %q after Close, want canceled", j.id, s)
		}
	}
}

func TestStats(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	defer m.Close()
	block := make(chan struct{})
	defer close(block)
	started := make(chan struct{})
	m.Create("running", "test", nil, func(ctx context.Context, job *Job) (json.RawMessage, string, error) {
		close(started)
		select {
		case <-block:
		case <-ctx.Done():
		}
		return nil, "", nil
	})
	<-started
	m.Create("pending", "test", nil, func(ctx context.Context, job *Job) (json.RawMessage, string, error) {
		return nil, "", nil
	})
	counts := m.Stats()
	if counts[Running] != 1 || counts[Pending] != 1 {
		t.Fatalf("stats %+v", counts)
	}
	if got := m.List(); len(got) != 2 {
		t.Fatalf("list %+v", got)
	}
}

// TestCountsLifecycle drives one job through each lifecycle path and
// checks the flat counters at every observable stage: the pending and
// running gauges while the job is in flight, and the cumulative
// terminal counters afterwards. The totals must survive retention —
// that is their whole point over Stats() — so the done case also
// retires the job and re-checks.
func TestCountsLifecycle(t *testing.T) {
	cases := []struct {
		name string
		// drive runs the scenario against a Workers:1 manager and
		// returns once every job involved is terminal.
		drive func(t *testing.T, m *Manager)
		want  Counts
	}{
		{
			name: "done",
			drive: func(t *testing.T, m *Manager) {
				release := make(chan struct{})
				j, err := m.Create("j", "test", nil, func(ctx context.Context, job *Job) (json.RawMessage, string, error) {
					<-release
					return json.RawMessage(`{}`), "", nil
				})
				if err != nil {
					t.Fatal(err)
				}
				for j.State() != Running {
					time.Sleep(time.Millisecond)
				}
				if c := m.Counts(); c.Running != 1 || c.Pending != 0 {
					t.Fatalf("mid-run counts %+v", c)
				}
				close(release)
				waitTerminal(t, j)
			},
			want: Counts{DoneTotal: 1},
		},
		{
			name: "failed",
			drive: func(t *testing.T, m *Manager) {
				j, err := m.Create("j", "test", nil, func(ctx context.Context, job *Job) (json.RawMessage, string, error) {
					return nil, "boom", errors.New("boom")
				})
				if err != nil {
					t.Fatal(err)
				}
				waitTerminal(t, j)
			},
			want: Counts{FailedTotal: 1},
		},
		{
			name: "canceled_running",
			drive: func(t *testing.T, m *Manager) {
				j, err := m.Create("j", "test", nil, func(ctx context.Context, job *Job) (json.RawMessage, string, error) {
					<-ctx.Done()
					return nil, "", ctx.Err()
				})
				if err != nil {
					t.Fatal(err)
				}
				for j.State() != Running {
					time.Sleep(time.Millisecond)
				}
				if _, err := m.Cancel("j"); err != nil {
					t.Fatal(err)
				}
				waitTerminal(t, j)
			},
			want: Counts{CanceledTotal: 1},
		},
		{
			name: "canceled_pending",
			drive: func(t *testing.T, m *Manager) {
				release := make(chan struct{})
				hog, err := m.Create("hog", "test", nil, func(ctx context.Context, job *Job) (json.RawMessage, string, error) {
					<-release
					return nil, "", nil
				})
				if err != nil {
					t.Fatal(err)
				}
				for hog.State() != Running {
					time.Sleep(time.Millisecond)
				}
				queued, err := m.Create("queued", "test", nil, func(ctx context.Context, job *Job) (json.RawMessage, string, error) {
					return nil, "", nil
				})
				if err != nil {
					t.Fatal(err)
				}
				if c := m.Counts(); c.Pending != 1 || c.Running != 1 {
					t.Fatalf("queued counts %+v", c)
				}
				if _, err := m.Cancel("queued"); err != nil {
					t.Fatal(err)
				}
				waitTerminal(t, queued)
				close(release)
				waitTerminal(t, hog)
			},
			want: Counts{DoneTotal: 1, CanceledTotal: 1},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := NewManager(Config{Workers: 1, Retain: 1})
			defer m.Close()
			tc.drive(t, m)
			waitCounts(t, m, tc.want)
			// Push every terminal job out of retention; the cumulative
			// totals must not move.
			for i := 0; i < 3; i++ {
				j, err := m.Create(fmt.Sprintf("churn-%d", i), "test", nil,
					func(ctx context.Context, job *Job) (json.RawMessage, string, error) {
						return nil, "", nil
					})
				if err != nil {
					t.Fatal(err)
				}
				waitTerminal(t, j)
			}
			after := tc.want
			after.DoneTotal += 3
			waitCounts(t, m, after)
		})
	}
}

// waitCounts polls until the manager's flat counters reach want; the
// gauge decrements and total increments land just after the terminal
// event, so an immediate read can be one step behind.
func waitCounts(t *testing.T, m *Manager, want Counts) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		got := m.Counts()
		if got == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("counts %+v, want %+v", got, want)
		}
		time.Sleep(time.Millisecond)
	}
}

func waitTerminal(t *testing.T, j *Job) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !j.State().Terminal() {
		if time.Now().After(deadline) {
			t.Fatalf("job %s never reached a terminal state", j.id)
		}
		time.Sleep(time.Millisecond)
	}
}
