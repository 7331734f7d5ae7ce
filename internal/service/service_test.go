package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/comm"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := NewServer(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading body: %v", err)
	}
	return resp, b
}

func getJSON(t *testing.T, url string, into any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatalf("decoding %s: %v", url, err)
	}
}

// metricsDoc decodes the /metrics document's counters.
type metricsDoc struct {
	Requests   int64   `json:"requests"`
	Errors     int64   `json:"errors"`
	CacheHits  int64   `json:"cache_hits"`
	CacheMiss  int64   `json:"cache_misses"`
	Coalesced  int64   `json:"coalesced"`
	Computes   int64   `json:"computes"`
	InFlight   int64   `json:"in_flight"`
	HitRatio   float64 `json:"cache_hit_ratio"`
	UptimeSecs float64 `json:"uptime_seconds"`
}

func readMetrics(t *testing.T, base string) metricsDoc {
	t.Helper()
	var m metricsDoc
	getJSON(t, base+"/metrics", &m)
	return m
}

func TestPlanEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/plan", `{"topology":{"kind":"mesh","n":4}}`)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out struct {
		Scheme    string  `json:"scheme"`
		Sigma     float64 `json:"sigma"`
		Period    float64 `json:"period"`
		Rationale string  `json:"rationale"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("decoding plan: %v\n%s", err, body)
	}
	if out.Scheme == "" || out.Rationale == "" {
		t.Fatalf("plan missing scheme or rationale: %s", body)
	}
	if out.Period <= 0 {
		t.Fatalf("plan period %g, want > 0", out.Period)
	}
}

func TestPlanDefaultsShareCacheEntry(t *testing.T) {
	// Omitted fields and spelled-out defaults must canonicalize to the
	// same cache key.
	_, ts := newTestServer(t, Config{})
	r1, _ := postJSON(t, ts.URL+"/v1/plan", `{"topology":{"kind":"ring","n":8}}`)
	r2, _ := postJSON(t, ts.URL+"/v1/plan", `{"m":1,"delta":2,"buffer_spacing":1,"topology":{"kind":"ring","n":8}}`)
	if got := r1.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("first request X-Cache = %q, want miss", got)
	}
	if got := r2.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("default-spelled request X-Cache = %q, want hit", got)
	}
}

func TestAnalyzeEndpointAndCacheHitMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := `{"topology":{"kind":"mesh","n":4},"trees":["htree","spine","ladder"],"montecarlo_trials":32,"seed":7,"certified_lower_bound":true}`

	resp, body := postJSON(t, ts.URL+"/v1/analyze", req)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out AnalyzeResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("decoding analyze: %v\n%s", err, body)
	}
	if out.Cells != 16 || len(out.Results) != 3 {
		t.Fatalf("got cells=%d results=%d, want 16 and 3", out.Cells, len(out.Results))
	}
	byName := map[string]TreeAnalysis{}
	for _, r := range out.Results {
		byName[r.Tree] = r
	}
	ht := byName["htree"]
	if ht.Error != "" || ht.MaxSkew <= 0 || ht.MonteCarloMaxSkew <= 0 {
		t.Fatalf("htree analysis incomplete: %+v", ht)
	}
	if ht.MonteCarloMaxSkew > ht.MaxSkew {
		t.Fatalf("Monte Carlo skew %g exceeds model bound %g", ht.MonteCarloMaxSkew, ht.MaxSkew)
	}
	if ht.CertifiedLowerBound <= 0 {
		t.Fatalf("expected certified lower bound on a mesh, got %+v", ht)
	}
	// A ladder cannot be built on a 4×4 mesh: the error must be inline,
	// not a request failure.
	if byName["ladder"].Error == "" {
		t.Fatalf("expected inline error for ladder on mesh, got %+v", byName["ladder"])
	}

	before := readMetrics(t, ts.URL)
	resp2, body2 := postJSON(t, ts.URL+"/v1/analyze", req)
	if resp2.StatusCode != 200 {
		t.Fatalf("repeat status %d", resp2.StatusCode)
	}
	if got := resp2.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("repeat X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(body, body2) {
		t.Fatalf("cached response differs from computed response")
	}
	after := readMetrics(t, ts.URL)
	if after.CacheHits != before.CacheHits+1 {
		t.Fatalf("cache_hits %d → %d, want +1", before.CacheHits, after.CacheHits)
	}
	if after.Computes != before.Computes {
		t.Fatalf("computes %d → %d, cached repeat must not recompute", before.Computes, after.Computes)
	}
}

func TestAnalyzeInlineGraph(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// Build the graph JSON via the comm interchange format.
	graph := `{"kind":"linear","name":"linear-4","rows":1,"cols":4,
		"cells":[{"id":0,"row":0,"col":0,"x":0,"y":0},{"id":1,"row":0,"col":1,"x":1,"y":0},
		         {"id":2,"row":0,"col":2,"x":2,"y":0},{"id":3,"row":0,"col":3,"x":3,"y":0}],
		"edges":[{"from":0,"to":1},{"from":1,"to":2},{"from":2,"to":3}]}`
	resp, body := postJSON(t, ts.URL+"/v1/analyze", `{"graph":`+graph+`,"trees":["spine"]}`)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out AnalyzeResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("decoding: %v", err)
	}
	if out.Cells != 4 || out.Results[0].Error != "" {
		t.Fatalf("inline graph analysis failed: %s", body)
	}
}

func TestSimulateClockEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := `{"topology":{"kind":"mesh","n":4},"tree":"htree","regime":"random","trials":16,"seed":3,
		"params":{"m":1,"eps":0.2,"min_separation":0.5}}`
	resp, body := postJSON(t, ts.URL+"/v1/simulate", req)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out SimulateResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("decoding: %v", err)
	}
	if out.CommSkew == nil || out.CommSkew.N != 16 {
		t.Fatalf("want 16 skew samples, got %+v", out.CommSkew)
	}
	if out.CommSkew.Max < out.CommSkew.Min {
		t.Fatalf("summary out of order: %+v", out.CommSkew)
	}
	if out.MinPipelinedPeriod <= 0 {
		t.Fatalf("min_pipelined_period missing with min_separation set: %s", body)
	}

	// Same request, same seed → identical body (determinism, not cache):
	// clear the cache effect by using a second server.
	_, ts2 := newTestServer(t, Config{})
	_, body2 := postJSON(t, ts2.URL+"/v1/simulate", req)
	if !bytes.Equal(body, body2) {
		t.Fatalf("same seed produced different simulate responses:\n%s\n%s", body, body2)
	}
}

func TestSimulateHybridWithFaults(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := `{"topology":{"kind":"mesh","n":6},"mode":"hybrid","seed":11,
		"hybrid":{"element_size":3,"waves":16},
		"faults":{"DropProb":0.05,"RetransmitTimeout":2,"DelayProb":0.1,"MaxDelay":1}}`
	resp, body := postJSON(t, ts.URL+"/v1/simulate", req)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out SimulateResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("decoding: %v", err)
	}
	if out.Hybrid == nil || out.Hybrid.Elements <= 1 || out.Hybrid.CycleTime <= 0 {
		t.Fatalf("hybrid summary incomplete: %s", body)
	}
	if out.Faults == nil || out.Faults.Dropped+out.Faults.Delayed == 0 {
		t.Fatalf("expected injected faults to be reported, got %s", body)
	}
	if out.Hybrid.MaxStall <= 0 {
		t.Fatalf("faulty run should stall behind clean run, got %+v", out.Hybrid)
	}
}

func TestLayoutEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/layout.svg?kind=mesh&n=4&tree=htree")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "image/svg+xml" {
		t.Fatalf("Content-Type %q, want image/svg+xml", ct)
	}
	if !bytes.Contains(body, []byte("<svg")) {
		t.Fatalf("response is not SVG: %.120s", body)
	}

	// The layout cache is content-addressed over the normalized query.
	resp2, err := http.Get(ts.URL + "/v1/layout.svg?tree=htree&kind=mesh&n=4")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if got := resp2.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("reordered query X-Cache = %q, want hit", got)
	}
}

func TestErrorPaths(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name, method, path, body string
		wantStatus               int
		wantInBody               string
	}{
		{"malformed json", "POST", "/v1/plan", `{"topology":`, 400, "decoding request"},
		{"unknown topology", "POST", "/v1/plan", `{"topology":{"kind":"klein-bottle","n":4}}`, 400, "unknown topology"},
		{"both graph and topology", "POST", "/v1/plan", `{"topology":{"kind":"ring","n":4},"graph":{"kind":"linear","name":"x","rows":1,"cols":2,"cells":[{"id":0,"row":0,"col":0,"x":0,"y":0},{"id":1,"row":0,"col":1,"x":1,"y":0}],"edges":[{"from":0,"to":1}]}}`, 400, "exactly one"},
		{"neither graph nor topology", "POST", "/v1/analyze", `{"trees":["htree"]}`, 400, "needs a topology or a graph"},
		{"unknown tree", "POST", "/v1/analyze", `{"topology":{"kind":"ring","n":4},"trees":[]}`, 200, ""}, // defaults to htree
		{"bad model", "POST", "/v1/analyze", `{"topology":{"kind":"ring","n":4},"model":{"kind":"cubic"}}`, 400, "unknown skew model"},
		{"bad regime", "POST", "/v1/simulate", `{"topology":{"kind":"ring","n":4},"regime":"chaotic"}`, 400, "unknown regime"},
		{"invalid topology size", "POST", "/v1/plan", `{"topology":{"kind":"torus","n":2}}`, 400, "Torus"},
		{"get on post endpoint", "GET", "/v1/plan", "", 405, "method not allowed"},
		{"post on layout", "POST", "/v1/layout.svg", "", 405, "method not allowed"},
		{"layout without kind", "GET", "/v1/layout.svg", "", 400, "kind"},
		{"unbuildable tree", "POST", "/v1/analyze", `{"topology":{"kind":"mesh","n":3},"trees":["bogus"]}`, 200, "unknown tree builder"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			b, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.wantStatus, b)
			}
			if tc.wantInBody != "" && !bytes.Contains(b, []byte(tc.wantInBody)) {
				t.Fatalf("body %q does not mention %q", b, tc.wantInBody)
			}
		})
	}
}

func TestDeadlineExceededReturns504(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	// Hold the computation until its 1ms deadline has long expired; the
	// engines observe the cancelled context and abort.
	s.computeGate = func(string) { time.Sleep(30 * time.Millisecond) }
	resp, body := postJSON(t, ts.URL+"/v1/analyze",
		`{"topology":{"kind":"mesh","n":8},"trees":["htree","spine"],"montecarlo_trials":1024,"timeout_ms":1}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", resp.StatusCode, body)
	}
	m := readMetrics(t, ts.URL)
	if m.Errors == 0 {
		t.Fatalf("504 should count as an error, metrics: %+v", m)
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var out struct {
		Status string `json:"status"`
	}
	getJSON(t, ts.URL+"/healthz", &out)
	if out.Status != "ok" {
		t.Fatalf("healthz status %q, want ok", out.Status)
	}
}

func TestStructuredLogs(t *testing.T) {
	var buf bytes.Buffer
	s := NewServer(Config{LogWriter: &buf})
	ts := httptest.NewServer(s)
	defer ts.Close()
	postJSON(t, ts.URL+"/v1/plan", `{"topology":{"kind":"ring","n":4}}`)
	postJSON(t, ts.URL+"/v1/plan", `{"topology":{"kind":"ring","n":4}}`)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("want 2 log lines, got %d: %q", len(lines), buf.String())
	}
	for i, line := range lines {
		var rec struct {
			Endpoint string  `json:"endpoint"`
			Status   int     `json:"status"`
			Cache    string  `json:"cache"`
			Duration float64 `json:"duration_ms"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line %d is not JSON: %v: %q", i, err, line)
		}
		if rec.Endpoint != "plan" || rec.Status != 200 {
			t.Fatalf("log line %d unexpected: %q", i, line)
		}
	}
	var second struct {
		Cache string `json:"cache"`
	}
	json.Unmarshal([]byte(lines[1]), &second)
	if second.Cache != "hit" {
		t.Fatalf("second request log cache = %q, want hit", second.Cache)
	}
}

func TestMetricsLatencyHistogram(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	postJSON(t, ts.URL+"/v1/plan", `{"topology":{"kind":"ring","n":4}}`)
	var doc struct {
		Latency map[string]json.RawMessage `json:"request_latency_ms"`
	}
	getJSON(t, ts.URL+"/metrics", &doc)
	raw, ok := doc.Latency["plan"]
	if !ok {
		t.Fatalf("metrics missing request_latency_ms.plan: %v", doc.Latency)
	}
	var h struct {
		Count int     `json:"count"`
		P50   float64 `json:"p50_ms"`
		P95   float64 `json:"p95_ms"`
		P99   float64 `json:"p99_ms"`
	}
	if err := json.Unmarshal(raw, &h); err != nil {
		t.Fatalf("latency histogram not JSON: %v: %s", err, raw)
	}
	if h.Count != 1 || h.P50 <= 0 || h.P99 < h.P50 {
		t.Fatalf("implausible latency histogram: %+v", h)
	}
}

// TestOneKernelPerRecipeAcrossEndpoints pins one engine per recipe:
// analyze then simulate of one recipe, and simulate then analyze of
// another, each build exactly one kernel, which the second request
// reuses; no clock simulation builds a second engine of its own.
func TestOneKernelPerRecipeAcrossEndpoints(t *testing.T) {
	for _, order := range [][2]string{{"analyze", "simulate"}, {"simulate", "analyze"}} {
		s, ts := newTestServer(t, Config{})
		body := map[string]string{
			"analyze":  `{"topology":{"kind":"mesh","n":6},"trees":["htree"],"equalize":true,"buffer_spacing":1,"montecarlo_trials":8}`,
			"simulate": `{"topology":{"kind":"mesh","n":6},"tree":"htree","equalize":true,"buffer_spacing":1,"regime":"random","trials":8}`,
		}
		for _, ep := range order {
			if resp, b := postJSON(t, ts.URL+"/v1/"+ep, body[ep]); resp.StatusCode != 200 {
				t.Fatalf("%v: %s status %d: %s", order, ep, resp.StatusCode, b)
			}
		}
		miss, hit, simMiss := s.metrics.kernelMisses.Load(), s.metrics.kernelHits.Load(), s.metrics.simKernelMisses.Load()
		if miss != 1 || hit != 1 || simMiss != 0 {
			t.Errorf("%v: kernel cache misses %d, hits %d, sim-kernel misses %d; want 1, 1, 0", order, miss, hit, simMiss)
		}
	}
}

func TestKernelCacheSharedAcrossSeedsAndEndpoints(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	// Same (graph, tree) recipe, different seeds: distinct result-cache
	// keys, one shared kernel.
	for _, req := range []string{
		`{"topology":{"kind":"mesh","n":8},"trees":["htree"],"montecarlo_trials":16,"seed":1}`,
		`{"topology":{"kind":"mesh","n":8},"trees":["htree"],"montecarlo_trials":16,"seed":2}`,
	} {
		resp, body := postJSON(t, ts.URL+"/v1/analyze", req)
		if resp.StatusCode != 200 {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
	}
	if got := s.metrics.kernelMisses.Load(); got != 1 {
		t.Fatalf("kernel misses = %d, want 1 (second analyze should reuse the kernel)", got)
	}
	if got := s.metrics.kernelHits.Load(); got != 1 {
		t.Fatalf("kernel hits = %d, want 1", got)
	}

	// A simulate over the same recipe reuses the same kernel entry.
	resp, body := postJSON(t, ts.URL+"/v1/simulate",
		`{"topology":{"kind":"mesh","n":8},"tree":"htree","regime":"random","trials":4,"seed":3}`)
	if resp.StatusCode != 200 {
		t.Fatalf("simulate status %d: %s", resp.StatusCode, body)
	}
	if got := s.metrics.kernelMisses.Load(); got != 1 {
		t.Fatalf("kernel misses after simulate = %d, want 1", got)
	}
	if got := s.metrics.kernelHits.Load(); got != 2 {
		t.Fatalf("kernel hits after simulate = %d, want 2", got)
	}

	// Both exposition formats report the kernel-cache counters.
	var m struct {
		KernelHits   int64 `json:"kernel_cache_hits"`
		KernelMisses int64 `json:"kernel_cache_misses"`
	}
	getJSON(t, ts.URL+"/metrics", &m)
	if m.KernelHits != 2 || m.KernelMisses != 1 {
		t.Fatalf("/metrics kernel cache hits/misses = %d/%d, want 2/1", m.KernelHits, m.KernelMisses)
	}
	promResp, err := http.Get(ts.URL + "/metrics?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	defer promResp.Body.Close()
	prom, _ := io.ReadAll(promResp.Body)
	for _, want := range []string{
		"kernel_cache_hits_total 2",
		"kernel_cache_misses_total 1",
		"kernel_cache_entries 1",
	} {
		if !strings.Contains(string(prom), want) {
			t.Errorf("prom exposition missing %q", want)
		}
	}
}

func TestKernelCacheDistinguishesRecipes(t *testing.T) {
	// Inline graphs are keyed by their full content: the 4x4 mesh
	// itself, and copies differing in one edge or one cell coordinate.
	inline := func(edit func([]comm.Cell, []comm.Edge) []comm.Edge) string {
		m, err := comm.Mesh(4, 4)
		if err != nil {
			t.Fatal(err)
		}
		cells := make([]comm.Cell, m.NumCells())
		for i := range cells {
			cells[i] = m.Cell(comm.CellID(i))
		}
		edges := make([]comm.Edge, m.NumEdges())
		for i := range edges {
			edges[i] = m.Edge(i)
		}
		g, err := comm.New(m.Kind(), m.Name, m.Rows(), m.Cols(), cells, edit(cells, edges))
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(g)
		if err != nil {
			t.Fatal(err)
		}
		return `{"graph":` + string(b) + `,"trees":["htree"]}`
	}
	mesh := inline(func(_ []comm.Cell, e []comm.Edge) []comm.Edge { return e })
	s, ts := newTestServer(t, Config{})
	bodies := map[string][]byte{}
	for _, req := range []string{
		`{"topology":{"kind":"mesh","n":4},"trees":["htree"]}`,
		`{"topology":{"kind":"mesh","n":4},"trees":["htree"],"equalize":true}`,
		`{"topology":{"kind":"mesh","n":4},"trees":["htree"],"buffer_spacing":2}`,
		`{"topology":{"kind":"mesh","n":4},"trees":["spine"]}`,
		mesh,
		inline(func(_ []comm.Cell, e []comm.Edge) []comm.Edge { return e[:len(e)-1] }),
		inline(func(c []comm.Cell, e []comm.Edge) []comm.Edge { c[len(c)-1].Pos.X += 0.5; return e }),
	} {
		resp, body := postJSON(t, ts.URL+"/v1/analyze", req)
		if resp.StatusCode != 200 {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		var out AnalyzeResponse
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		if e := out.Results[0].Error; e != "" {
			t.Fatalf("%s: inline error %q", req, e)
		}
		bodies[req] = body
	}
	if got := s.metrics.kernelMisses.Load(); got != 7 {
		t.Fatalf("kernel misses = %d, want 7 (every recipe and inline graph differs)", got)
	}
	// The inline mesh keys apart from its topology spec but answers
	// bit for bit like it.
	if topo := bodies[`{"topology":{"kind":"mesh","n":4},"trees":["htree"]}`]; !bytes.Equal(bodies[mesh], topo) {
		t.Fatalf("inline mesh answer differs from the topology form:\n%s\nvs\n%s", bodies[mesh], topo)
	}

	// A hybrid element size spelled out at its default and one left to
	// the default share one hybrid system.
	for _, req := range []string{
		`{"topology":{"kind":"mesh","n":4},"mode":"hybrid","hybrid":{"element_size":4}}`,
		`{"topology":{"kind":"mesh","n":4},"mode":"hybrid","seed":2}`,
	} {
		resp, body := postJSON(t, ts.URL+"/v1/simulate", req)
		if resp.StatusCode != 200 {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
	}
	if n, miss, hit := s.hybridSystems.Len(), s.metrics.simKernelMisses.Load(), s.metrics.simKernelHits.Load(); n != 1 || miss != 1 || hit != 1 {
		t.Fatalf("hybrid systems = %d, sim-kernel misses/hits = %d/%d, want 1 entry and 1/1", n, miss, hit)
	}
}

// TestConcurrentKernelBuildsCoalesce pins one build per recipe under
// concurrency: N analyze requests for one recipe with distinct seeds
// (all result-cache misses) reach the kernel cache together, and
// exactly one of them builds the kernel.
func TestConcurrentKernelBuildsCoalesce(t *testing.T) {
	const n = 8
	s := NewServer(Config{})
	var arrived sync.WaitGroup
	arrived.Add(n)
	s.computeGate = func(string) { arrived.Done(); arrived.Wait() }
	ts := httptest.NewServer(s)
	defer ts.Close()

	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := fmt.Sprintf(`{"topology":{"kind":"mesh","n":32},"trees":["htree"],"montecarlo_trials":2,"seed":%d}`, i+1)
			resp, body := postJSON(t, ts.URL+"/v1/analyze", req)
			if resp.StatusCode != 200 {
				t.Errorf("request %d: status %d: %s", i, resp.StatusCode, body)
			}
			bodies[i] = body
		}(i)
	}
	wg.Wait()
	if got := s.metrics.computes.Load(); got != n {
		t.Fatalf("computes = %d, want %d distinct result-cache misses", got, n)
	}
	if miss, hit := s.metrics.kernelMisses.Load(), s.metrics.kernelHits.Load(); miss != 1 || hit != n-1 {
		t.Fatalf("kernel_cache_misses/hits = %d/%d, want 1/%d", miss, hit, n-1)
	}
	// Every request saw the same kernel, so the seed-free fields agree.
	results := make([]TreeAnalysis, n)
	for i, body := range bodies {
		var out AnalyzeResponse
		if err := json.Unmarshal(body, &out); err != nil || len(out.Results) != 1 {
			t.Fatalf("response %d: %v: %s", i, err, body)
		}
		results[i] = out.Results[0]
	}
	for i, a := range results {
		if b := results[0]; a.MaxSkew != b.MaxSkew || a.WorstPair != b.WorstPair || a.Pairs != b.Pairs {
			t.Fatalf("response %d analysis differs from response 0", i)
		}
	}
}
