package service

import (
	"context"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

func TestFlightGroupCoalesces(t *testing.T) {
	g := newFlightGroup[response]()
	var computes int
	release := make(chan struct{})
	started := make(chan struct{})

	var wg sync.WaitGroup
	var mu sync.Mutex
	leaders, followers := 0, 0
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(first bool) {
			defer wg.Done()
			if !first {
				<-started // ensure the leader holds the key before followers arrive
			}
			res, err, coalesced, leader := g.Do(context.Background(), "k", "r0", func() (response, error) {
				close(started)
				computes++
				<-release
				return jsonResponse([]byte("ok")), nil
			})
			if err != nil {
				t.Errorf("Do: %v", err)
			}
			if string(res.body) != "ok" {
				t.Errorf("res = %q", res.body)
			}
			if leader != "r0" {
				t.Errorf("leader = %q, want r0", leader)
			}
			mu.Lock()
			if coalesced {
				followers++
			} else {
				leaders++
			}
			mu.Unlock()
		}(i == 0)
	}
	// Give followers time to park on the in-flight call, then release.
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()

	if computes != 1 {
		t.Fatalf("fn ran %d times, want exactly 1", computes)
	}
	if leaders != 1 || followers != 7 {
		t.Fatalf("leaders=%d followers=%d, want 1 and 7", leaders, followers)
	}
}

func TestFlightGroupDistinctKeysIndependent(t *testing.T) {
	g := newFlightGroup[response]()
	var mu sync.Mutex
	ran := map[string]int{}
	var wg sync.WaitGroup
	for _, k := range []string{"a", "b", "c"} {
		wg.Add(1)
		go func(k string) {
			defer wg.Done()
			g.Do(context.Background(), k, "r-"+k, func() (response, error) {
				mu.Lock()
				ran[k]++
				mu.Unlock()
				return response{}, nil
			})
		}(k)
	}
	wg.Wait()
	for _, k := range []string{"a", "b", "c"} {
		if ran[k] != 1 {
			t.Fatalf("key %q ran %d times", k, ran[k])
		}
	}
}

func TestFlightGroupFollowerRespectsContext(t *testing.T) {
	g := newFlightGroup[response]()
	release := make(chan struct{})
	defer close(release)
	started := make(chan struct{})
	go g.Do(context.Background(), "k", "r-lead", func() (response, error) {
		close(started)
		<-release
		return response{}, nil
	})
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, err, coalesced, leader := g.Do(ctx, "k", "r-follow", func() (response, error) {
		t.Error("follower must not compute")
		return response{}, nil
	})
	if !coalesced {
		t.Fatalf("second caller should have joined the in-flight call")
	}
	if leader != "r-lead" {
		t.Fatalf("leader = %q, want r-lead", leader)
	}
	if err != context.DeadlineExceeded {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
}

// TestConcurrentIdenticalRequestsComputeOnce is the acceptance check:
// N clients posting the same analyze request while none is cached must
// trigger exactly one engine execution.
func TestConcurrentIdenticalRequestsComputeOnce(t *testing.T) {
	const n = 8
	s := NewServer(Config{})
	release := make(chan struct{})
	s.computeGate = func(string) { <-release }
	ts := httptest.NewServer(s)
	defer ts.Close()

	req := `{"topology":{"kind":"mesh","n":4},"trees":["htree"],"montecarlo_trials":64,"seed":5}`
	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body := postJSON(t, ts.URL+"/v1/analyze", req)
			if resp.StatusCode != 200 {
				t.Errorf("request %d: status %d: %s", i, resp.StatusCode, body)
			}
			bodies[i] = body
		}(i)
	}

	// Wait until all n requests are in flight (leader at the gate,
	// followers parked on its call), then open the gate.
	deadline := time.Now().Add(5 * time.Second)
	for s.metrics.inFlight.Load() < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d requests in flight", s.metrics.inFlight.Load(), n)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if got := s.metrics.computes.Load(); got != 1 {
		t.Fatalf("computes = %d, want exactly 1 for %d identical concurrent requests", got, n)
	}
	if got := s.metrics.coalesced.Load(); got != n-1 {
		t.Fatalf("coalesced = %d, want %d", got, n-1)
	}
	if got := s.metrics.misses.Load(); got != 1 {
		t.Fatalf("cache_misses = %d, want 1", got)
	}
	for i := 1; i < n; i++ {
		if string(bodies[i]) != string(bodies[0]) {
			t.Fatalf("response %d differs from response 0", i)
		}
	}
}
