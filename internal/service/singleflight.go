package service

import (
	"context"
	"sync"
)

// flightGroup coalesces concurrent identical work: while one caller
// (the leader) computes the value for a key, followers arriving with
// the same key block until the leader finishes and share its result —
// the underlying computation runs exactly once per distinct in-flight
// key, no matter how many callers ask. The serving flow coalesces
// finished responses through it, the engine caches their builds.
type flightGroup[V any] struct {
	mu    sync.Mutex
	calls map[string]*flightCall[V]
}

type flightCall[V any] struct {
	done   chan struct{} // closed when res/err are final
	leader string        // request ID of the caller computing the result
	res    V
	err    error
}

func newFlightGroup[V any]() *flightGroup[V] {
	return &flightGroup[V]{calls: make(map[string]*flightCall[V])}
}

// Do returns fn's result for key, computing it at most once across
// concurrent callers. owner identifies this caller (its request ID);
// the returned leader is the owner of the caller that actually computed
// — the caller itself when coalesced is false, otherwise the request
// whose computation was shared, so follower log lines and spans can
// point at the leader's. A follower whose ctx expires stops waiting and
// returns ctx's error; the leader's computation is not interrupted on
// its behalf.
func (g *flightGroup[V]) Do(ctx context.Context, key, owner string, fn func() (V, error)) (res V, err error, coalesced bool, leader string) {
	g.mu.Lock()
	if c, ok := g.calls[key]; ok {
		g.mu.Unlock()
		select {
		case <-c.done:
			return c.res, c.err, true, c.leader
		case <-ctx.Done():
			return res, ctx.Err(), true, c.leader
		}
	}
	c := &flightCall[V]{done: make(chan struct{}), leader: owner}
	g.calls[key] = c
	g.mu.Unlock()

	c.res, c.err = fn()

	g.mu.Lock()
	delete(g.calls, key)
	g.mu.Unlock()
	close(c.done)
	return c.res, c.err, false, owner
}
