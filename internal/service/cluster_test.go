package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
)

// testCluster is n clustered servers behind httptest listeners, each
// configured with the full peer list.
type testCluster struct {
	servers []*Server
	urls    []string
}

func newTestCluster(t *testing.T, n int, mutate func(i int, cfg *Config)) *testCluster {
	t.Helper()
	tc := &testCluster{servers: make([]*Server, n), urls: make([]string, n)}
	// The listeners must exist before the servers, because every server's
	// config names all peer URLs; an indirect handler breaks the cycle.
	for i := 0; i < n; i++ {
		i := i
		h := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			tc.servers[i].ServeHTTP(w, r)
		}))
		t.Cleanup(h.Close)
		tc.urls[i] = h.URL
	}
	for i := 0; i < n; i++ {
		peers := make([]string, 0, n-1)
		for j, u := range tc.urls {
			if j != i {
				peers = append(peers, u)
			}
		}
		cfg := Config{Cluster: &ClusterConfig{
			Self:           tc.urls[i],
			Peers:          peers,
			HealthInterval: time.Hour, // probes by hand in tests
			HedgePolicy:    cluster.HedgePolicy{HedgeAfter: 500 * time.Millisecond},
		}}
		if mutate != nil {
			mutate(i, &cfg)
		}
		s, err := NewClusterServer(cfg)
		if err != nil {
			t.Fatalf("NewClusterServer: %v", err)
		}
		t.Cleanup(s.Close)
		tc.servers[i] = s
	}
	return tc
}

// analyzeBody is a small kernel-bearing request; seed varies the result
// key while the kernel-affinity key stays fixed.
func analyzeBody(seed int) string {
	return analyzeBodyN(6, seed)
}

// analyzeBodyN also varies the mesh side, which varies the kernel
// recipe and therefore the affinity key — for tests that need a key
// owned by one specific node.
func analyzeBodyN(n, seed int) string {
	return fmt.Sprintf(`{"topology":{"kind":"mesh","n":%d},"trees":["htree"],"montecarlo_trials":8,"seed":%d}`, n, seed)
}

// bodyOwnedBy finds an analyze body whose kernel-affinity key the ring
// assigns to node, probing mesh sides.
func bodyOwnedBy(t *testing.T, ring interface{ Owner(string) string }, node string) string {
	t.Helper()
	for n := 4; n < 64; n++ {
		body := analyzeBodyN(n, 1)
		req := &AnalyzeRequest{}
		if err := json.Unmarshal([]byte(body), req); err != nil {
			t.Fatal(err)
		}
		req.applyDefaults()
		route, ok := req.affinityKey()
		if !ok {
			t.Fatal("analyze request must have an affinity key")
		}
		if ring.Owner(route) == node {
			return body
		}
	}
	t.Fatalf("no probed mesh side owned by %s (vanishingly unlikely)", node)
	return ""
}

// Every request sharing a kernel must land on one node: posting the same
// recipe (different seeds) through different entry nodes builds the
// kernel exactly once cluster-wide, and the forwarding node's cache is
// filled from the peer's response.
func TestClusterSingleKernelBuild(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	for seed := 1; seed <= 6; seed++ {
		entry := tc.urls[seed%3]
		resp, body := postJSON(t, entry+"/v1/analyze", analyzeBody(seed))
		if resp.StatusCode != 200 {
			t.Fatalf("seed %d via %s: status %d: %s", seed, entry, resp.StatusCode, body)
		}
	}
	var builds, fills int64
	for i, s := range tc.servers {
		builds += s.metrics.kernelMisses.Load()
		fills += s.metrics.cacheFill.Load()
		t.Logf("node %d: kernel_misses=%d cache_fill=%d", i, s.metrics.kernelMisses.Load(), s.metrics.cacheFill.Load())
	}
	if builds != 1 {
		t.Fatalf("kernel built %d times cluster-wide, want exactly 1", builds)
	}
	// Unless the owner happened to be every entry node, at least one
	// request was forwarded and filled a local cache.
	if fills == 0 {
		t.Fatal("no peer cache-fill happened; forwarding is not filling local caches")
	}
}

// A forwarded 200 fills the entry node's cache: the identical request
// repeated through the same non-owner node is a local hit with no
// second forward.
func TestClusterForwardFillsLocalCache(t *testing.T) {
	tc := newTestCluster(t, 2, nil)
	body := analyzeBody(42)
	// Find the entry node that does NOT own the request's kernel key.
	req := &AnalyzeRequest{}
	if err := json.Unmarshal([]byte(body), req); err != nil {
		t.Fatal(err)
	}
	req.applyDefaults()
	route, ok := req.affinityKey()
	if !ok {
		t.Fatal("analyze request must have an affinity key")
	}
	owner := tc.servers[0].cluster.ring.Owner(route)
	entry := 0
	if tc.urls[0] == owner {
		entry = 1
	}

	resp1, _ := postJSON(t, tc.urls[entry]+"/v1/analyze", body)
	if resp1.StatusCode != 200 {
		t.Fatalf("first request: status %d", resp1.StatusCode)
	}
	if got := resp1.Header.Get(cluster.ServedByHeader); got != owner {
		t.Fatalf("served-by %q, want owner %q", got, owner)
	}
	if resp1.Header.Get("X-Cache") != "remote" {
		t.Fatalf("X-Cache %q, want remote", resp1.Header.Get("X-Cache"))
	}
	resp2, _ := postJSON(t, tc.urls[entry]+"/v1/analyze", body)
	if resp2.Header.Get("X-Cache") != "hit" {
		t.Fatalf("repeat X-Cache %q, want a local hit after cache-fill", resp2.Header.Get("X-Cache"))
	}
	if n := tc.servers[entry].metrics.cacheFill.Load(); n != 1 {
		t.Fatalf("cluster_cache_fill_total = %d, want 1", n)
	}
}

// A request whose owner (and every other peer) is unreachable answers
// 502 with the machine-readable reason peer_unreachable.
func TestClusterPeerUnreachable(t *testing.T) {
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	dead.Close()
	s, err := NewClusterServer(Config{Cluster: &ClusterConfig{
		Self:           "http://127.0.0.1:1", // never dialed: requests enter via ServeHTTP
		Peers:          []string{dead.URL},
		HealthInterval: time.Hour,
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)

	// A request the dead peer owns must forward, fail, and answer 502.
	body := bodyOwnedBy(t, s.cluster.ring, dead.URL)
	resp, respBody := postJSON(t, ts.URL+"/v1/analyze", body)
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("status %d, want 502: %s", resp.StatusCode, respBody)
	}
	var eb ErrorBody
	if err := json.Unmarshal(respBody, &eb); err != nil {
		t.Fatalf("502 body is not an ErrorBody: %s", respBody)
	}
	if eb.Reason != ReasonPeerUnreachable {
		t.Fatalf("reason %q, want %q", eb.Reason, ReasonPeerUnreachable)
	}
	if s.metrics.forwardErrors.Load() != 1 {
		t.Fatalf("cluster_forward_errors_total = %d, want 1", s.metrics.forwardErrors.Load())
	}
}

// Marking the owner down via health probes routes its keys to the
// survivor without errors: availability wins over affinity.
func TestClusterDownedPeerServedBySurvivor(t *testing.T) {
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	deadURL := dead.URL
	dead.Close()
	s, err := NewClusterServer(Config{Cluster: &ClusterConfig{
		Self:           "http://127.0.0.1:1",
		Peers:          []string{deadURL},
		HealthInterval: time.Hour,
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	// Two consecutive failed probes mark the peer down.
	s.cluster.health.CheckNow(context.Background())
	s.cluster.health.CheckNow(context.Background())
	if s.cluster.health.Alive(deadURL) {
		t.Fatal("dead peer still alive after two failed probes")
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	body := bodyOwnedBy(t, s.cluster.ring, deadURL)
	resp, respBody := postJSON(t, ts.URL+"/v1/analyze", body)
	if resp.StatusCode != 200 {
		t.Fatalf("request owned by downed peer: status %d, want local 200: %s", resp.StatusCode, respBody)
	}
	if resp.Header.Get(cluster.ServedByHeader) != "" {
		t.Fatal("request must be served locally when the owner is down")
	}
}

// A forwarded request carries the Forwarded header, so the receiving
// node serves it locally even when the ring says a third node owns it —
// relaying is bounded at one hop.
func TestClusterForwardedRequestServesLocally(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	body := analyzeBody(7)
	req, err := http.NewRequest(http.MethodPost, tc.urls[0]+"/v1/analyze", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(cluster.ForwardedHeader, "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if resp.Header.Get(cluster.ServedByHeader) != "" {
		t.Fatal("a forwarded request was forwarded again")
	}
	if tc.servers[0].metrics.kernelMisses.Load() != 1 {
		t.Fatal("forwarded request must compute locally")
	}
}

// DrainToPeers pushes the drained node's cache entries to their ring
// owners, which accept them through /v1/cluster/fill.
func TestClusterDrainMigratesCache(t *testing.T) {
	tc := newTestCluster(t, 2, nil)
	// Warm node 0 with several distinct results computed locally (the
	// Forwarded header keeps them local regardless of ownership).
	for seed := 1; seed <= 16; seed++ {
		req, _ := http.NewRequest(http.MethodPost, tc.urls[0]+"/v1/analyze", strings.NewReader(analyzeBody(seed)))
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(cluster.ForwardedHeader, "1")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	migrated := tc.servers[0].DrainToPeers(context.Background())
	if migrated == 0 {
		t.Fatal("drain migrated nothing; expected some keys owned by the peer")
	}
	if got := tc.servers[1].metrics.cacheFill.Load(); got != int64(migrated) {
		t.Fatalf("peer accepted %d fills, drain reported %d", got, migrated)
	}
}

// /v1/cluster/info reports membership and hedge state.
func TestClusterInfo(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	var info struct {
		Self         string   `json:"self"`
		Nodes        []string `json:"nodes"`
		Replicas     int      `json:"replicas"`
		HedgeEnabled bool     `json:"hedge_enabled"`
	}
	getJSON(t, tc.urls[0]+"/v1/cluster/info", &info)
	if info.Self != tc.urls[0] || len(info.Nodes) != 3 || info.Replicas != cluster.DefaultReplicas {
		t.Fatalf("info %+v", info)
	}
	if !info.HedgeEnabled {
		t.Fatal("hedging configured but reported disabled")
	}
}
