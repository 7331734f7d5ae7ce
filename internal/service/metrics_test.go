package service

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

func getURL(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading body: %v", err)
	}
	return resp, b
}

// syncWriter serializes writes and reads of the wrapped buffer: the
// handler's log write may race the client's next action otherwise.
type syncWriter struct {
	mu sync.Mutex
	w  *bytes.Buffer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

func (s *syncWriter) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.String()
}

// Recording and both renderings must be safe to interleave (run under
// -race), and no observation may be lost to a concurrent scrape.
func TestMetricsRecordConcurrent(t *testing.T) {
	s := NewServer(Config{DisableJobs: true})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				s.metrics.record("plan", http.StatusOK, float64(i%17)+0.5, "")
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				fams := s.metricFamilies()
				if js := renderJSON(fams); !json.Valid(js) {
					t.Errorf("JSON document not valid: %s", js)
					return
				}
				if _, err := obs.ParseProm(bytes.NewReader(renderProm(fams))); err != nil {
					t.Errorf("exposition does not parse: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	var doc struct {
		Latency map[string]latencySummary `json:"request_latency_ms"`
	}
	if err := json.Unmarshal(renderJSON(s.metricFamilies()), &doc); err != nil {
		t.Fatal(err)
	}
	if got := doc.Latency["plan"].Count; got != 8000 {
		t.Fatalf("request_latency_ms{plan} count = %d, want 8000", got)
	}
}

// The JSON /metrics document must now actually be indented (the comment
// always promised json.Indent) and remain valid JSON.
func TestMetricsSnapshotIndented(t *testing.T) {
	s := NewServer(Config{})
	snap := renderJSON(s.metricFamilies())
	if !json.Valid(snap) {
		t.Fatalf("snapshot is not valid JSON: %s", snap)
	}
	if !bytes.Contains(snap, []byte("\n  ")) {
		t.Fatalf("snapshot is not indented: %s", snap)
	}
}

// GET /metrics?format=prom must parse under the strict exposition parser
// and expose the acceptance families, including the eviction counter the
// LRU used to drop silently.
func TestMetricsPromExposition(t *testing.T) {
	s := NewServer(Config{CacheEntries: 1})
	ts := httptest.NewServer(s)
	defer ts.Close()

	// Two distinct layout requests against a 1-entry cache force an
	// eviction; re-requesting the first after serves a cold miss.
	for _, q := range []string{"kind=linear&n=3", "kind=linear&n=4", "kind=linear&n=3"} {
		resp, body := getURL(t, ts.URL+"/v1/layout.svg?"+q)
		if resp.StatusCode != 200 {
			t.Fatalf("layout?%s: status %d: %s", q, resp.StatusCode, body)
		}
	}

	resp, body := getURL(t, ts.URL+"/metrics?format=prom")
	if resp.StatusCode != 200 {
		t.Fatalf("metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q, want text/plain exposition", ct)
	}
	fams, err := obs.ParseProm(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, body)
	}

	want := map[string]float64{
		"requests_total":        3,
		"cache_hits_total":      0,
		"cache_evictions_total": 2, // n=4 evicts n=3, then n=3 evicts n=4
		"computes_total":        3,
		"in_flight":             0,
	}
	for name, v := range want {
		sm, ok := obs.FindProm(fams, name)
		if !ok {
			t.Fatalf("family %s missing from exposition:\n%s", name, body)
		}
		if sm.Value != v {
			t.Errorf("%s = %g, want %g", name, sm.Value, v)
		}
	}
	for _, suffix := range []string{"_sum", "_count"} {
		if _, ok := obs.FindProm(fams, "request_latency_ms", "endpoint", "layout", "__suffix__", suffix); !ok {
			t.Fatalf("request_latency_ms%s{endpoint=layout} missing:\n%s", suffix, body)
		}
	}
	if _, ok := obs.FindProm(fams, "request_latency_ms", "endpoint", "layout", "quantile", "0.99"); !ok {
		t.Fatalf("request_latency_ms p99 for layout missing:\n%s", body)
	}
}

// With the slow threshold at its floor every request is a capture: the
// flight recorder endpoint must return the request's whole span tree —
// with no trace export configured anywhere — and honor its filters.
// Flight recording works with no Config.Tracer because the server makes
// its own non-retaining one.
func TestFlightRecorderEndpoint(t *testing.T) {
	s := NewServer(Config{FlightSlow: time.Nanosecond})
	ts := httptest.NewServer(s)
	defer ts.Close()

	req, _ := http.NewRequest("GET", ts.URL+"/v1/layout.svg?kind=linear&n=3", nil)
	req.Header.Set("X-Request-ID", "slow-req-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	resp, body := getURL(t, ts.URL+"/debug/flightrecorder")
	if resp.StatusCode != 200 {
		t.Fatalf("flightrecorder: status %d: %s", resp.StatusCode, body)
	}
	var snap obs.FlightSnapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("flightrecorder response not a snapshot: %v\n%s", err, body)
	}
	if len(snap.Captures) == 0 {
		t.Fatalf("no captures with a 1ns slow threshold:\n%s", body)
	}
	cap0 := snap.Captures[0]
	if cap0.Root != "serve.layout" || cap0.Reason != "slow" || cap0.TraceID == "" {
		t.Fatalf("capture %+v, want a slow serve.layout root with a trace ID", cap0)
	}
	foundID := false
	for _, sp := range cap0.Spans {
		if sp.Attrs["request_id"] == "slow-req-1" {
			foundID = true
		}
	}
	if !foundID {
		t.Fatalf("capture spans missing request_id attr: %+v", cap0.Spans)
	}

	// The attr filter narrows the recent-span view to the matching request.
	_, body = getURL(t, ts.URL+"/debug/flightrecorder?attr=request_id=slow-req-1")
	var filtered obs.FlightSnapshot
	if err := json.Unmarshal(body, &filtered); err != nil {
		t.Fatal(err)
	}
	if len(filtered.Spans) == 0 {
		t.Fatalf("attr filter matched nothing:\n%s", body)
	}
	for _, sp := range filtered.Spans {
		if sp.Attrs["request_id"] != "slow-req-1" {
			t.Fatalf("filtered span leaked through: %+v", sp)
		}
	}

	// POST is refused; a disabled recorder 404s.
	pr, err := http.Post(ts.URL+"/debug/flightrecorder", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	pr.Body.Close()
	if pr.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST flightrecorder: status %d", pr.StatusCode)
	}
	off := NewServer(Config{DisableFlight: true})
	tsOff := httptest.NewServer(off)
	defer tsOff.Close()
	resp, _ = getURL(t, tsOff.URL+"/debug/flightrecorder")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("disabled flightrecorder: status %d, want 404", resp.StatusCode)
	}
}

// The fixed-bucket request_duration_ms family must appear in the prom
// exposition with cumulative buckets, a +Inf terminator, and at least
// one exemplar carrying a trace ID; the parser must round-trip it back
// into a histogram snapshot.
func TestMetricsPromHistogramWithExemplars(t *testing.T) {
	s := NewServer(Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	for i := 0; i < 3; i++ {
		resp, body := getURL(t, ts.URL+"/v1/layout.svg?kind=linear&n=3")
		if resp.StatusCode != 200 {
			t.Fatalf("layout: status %d: %s", resp.StatusCode, body)
		}
	}
	_, body := getURL(t, ts.URL+"/metrics?format=prom")
	fams, err := obs.ParseProm(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, body)
	}
	snap, ok := obs.PromHistogram(fams, "request_duration_ms", "endpoint", "layout")
	if !ok {
		t.Fatalf("request_duration_ms{endpoint=layout} missing:\n%s", body)
	}
	if snap.Count != 3 {
		t.Fatalf("histogram count %d, want 3", snap.Count)
	}
	hasExemplar := false
	for _, ex := range snap.Exemplars {
		if ex.TraceID != "" {
			hasExemplar = true
		}
	}
	if !hasExemplar {
		t.Fatalf("no exemplar with a trace ID in request_duration_ms:\n%s", body)
	}
	if p99 := snap.Quantile(0.99); math.IsNaN(p99) || p99 < 0 {
		t.Fatalf("p99 from scraped buckets = %v", p99)
	}
}

// The flat job lifecycle gauges and cumulative terminal counters must
// reach both expositions: the JSON document and the prom text.
func TestJobGaugesExposed(t *testing.T) {
	s := NewServer(Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	job := `{"analyze":{"topology":{"kind":"linear","n":4},"trees":["htree"]}}`
	resp, body := getURL3(t, ts.URL+"/v1/jobs", job)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job create: status %d: %s", resp.StatusCode, body)
	}
	waitJobsSettled(t, s)

	_, prom := getURL(t, ts.URL+"/metrics?format=prom")
	fams, err := obs.ParseProm(bytes.NewReader(prom))
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, prom)
	}
	for name, want := range map[string]float64{
		"jobs_pending": 0, "jobs_running": 0, "jobs_done_total": 1,
		"jobs_failed_total": 0, "jobs_canceled_total": 0,
	} {
		sm, ok := obs.FindProm(fams, name)
		if !ok {
			t.Fatalf("family %s missing:\n%s", name, prom)
		}
		if sm.Value != want {
			t.Errorf("%s = %g, want %g", name, sm.Value, want)
		}
	}

	_, js := getURL(t, ts.URL+"/metrics")
	var doc map[string]any
	if err := json.Unmarshal(js, &doc); err != nil {
		t.Fatalf("JSON document: %v", err)
	}
	for _, key := range []string{"jobs_pending", "jobs_running", "jobs_done_total", "jobs_failed_total", "jobs_canceled_total"} {
		if _, ok := doc[key]; !ok {
			t.Fatalf("JSON document missing %s:\n%s", key, js)
		}
	}
	if got := doc["jobs_done_total"]; got != 1.0 {
		t.Fatalf("jobs_done_total = %v, want 1", got)
	}
}

// getURL3 POSTs a JSON body.
func getURL3(t *testing.T, url, body string) (*http.Response, []byte) {
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

// waitJobsSettled polls until no job is pending or running.
func waitJobsSettled(t *testing.T, s *Server) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		c := s.jobs.Counts()
		if c.Pending == 0 && c.Running == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("jobs never settled: %+v", c)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// Requests are tagged with IDs: client-supplied X-Request-ID is echoed,
// otherwise the server assigns one; with a tracer configured the serve
// span records the ID, and a coalesced follower would record its leader.
func TestRequestIDsAndServeSpans(t *testing.T) {
	tr := obs.NewTracer()
	logbuf := &syncWriter{w: &bytes.Buffer{}}
	s := NewServer(Config{Tracer: tr, LogWriter: logbuf})
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp, _ := getURL(t, ts.URL+"/v1/layout.svg?kind=linear&n=3")
	assigned := resp.Header.Get("X-Request-ID")
	if assigned == "" {
		t.Fatalf("no X-Request-ID assigned")
	}

	req, _ := http.NewRequest("GET", ts.URL+"/v1/layout.svg?kind=linear&n=4", nil)
	req.Header.Set("X-Request-ID", "client-given-7")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if got := resp2.Header.Get("X-Request-ID"); got != "client-given-7" {
		t.Fatalf("X-Request-ID = %q, want echo of client-given-7", got)
	}

	if !strings.Contains(logbuf.String(), `"request_id":"client-given-7"`) {
		t.Fatalf("log lines missing request_id: %s", logbuf.String())
	}

	found := false
	for _, st := range tr.Summary() {
		if st.Name == "serve.layout" && st.Count == 2 {
			found = true
		}
	}
	if !found {
		t.Fatalf("serve.layout spans not recorded: %+v", tr.Summary())
	}
}

// metricsServer is one server shape whose two /metrics documents must
// agree, after it has served three analyzes, one plan and one layout.
type metricsServer struct {
	name string
	s    *Server
	url  string
}

// metricsServers builds the three shapes that register different
// families: a single node with jobs, node 0 of a 3-node cluster (which
// also forwards some of the requests), and a single node without jobs.
func metricsServers(t *testing.T) []metricsServer {
	t.Helper()
	single, singleTS := newTestServer(t, Config{})
	noJobs, noJobsTS := newTestServer(t, Config{DisableJobs: true})
	tc := newTestCluster(t, 3, nil)
	out := []metricsServer{
		{"single", single, singleTS.URL},
		{"cluster", tc.servers[0], tc.urls[0]},
		{"no-jobs", noJobs, noJobsTS.URL},
	}
	for _, ms := range out {
		bodies := []string{analyzeBody(1), analyzeBodyN(7, 1), analyzeBodyN(9, 1)}
		if ms.s.cluster != nil {
			// Node identities are httptest URLs on random ports, so the
			// ring may give node 0 every recipe above; one owned by node 1
			// makes node 0 forward on every run.
			bodies = append(bodies, bodyOwnedBy(t, tc.servers[0].cluster.ring, tc.urls[1]))
		}
		for _, body := range bodies {
			if resp, b := postJSON(t, ms.url+"/v1/analyze", body); resp.StatusCode != 200 {
				t.Fatalf("%s analyze: status %d: %s", ms.name, resp.StatusCode, b)
			}
		}
		if resp, b := postJSON(t, ms.url+"/v1/plan", `{"topology":{"kind":"mesh","n":4}}`); resp.StatusCode != 200 {
			t.Fatalf("%s plan: status %d: %s", ms.name, resp.StatusCode, b)
		}
		if resp, b := getURL(t, ms.url+"/v1/layout.svg?kind=linear&n=3"); resp.StatusCode != 200 {
			t.Fatalf("%s layout: status %d: %s", ms.name, resp.StatusCode, b)
		}
	}
	return out
}

// Both /metrics documents carry exactly the registry's families: the
// JSON document one key per family under its name, the Prometheus
// exposition one family of the same kind under the one naming rule
// (a counter gains _total). Every name is declared once.
func TestMetricsExpositionParity(t *testing.T) {
	for _, ms := range metricsServers(t) {
		t.Run(ms.name, func(t *testing.T) {
			_, js := getURL(t, ms.url+"/metrics")
			var doc map[string]json.RawMessage
			if err := json.Unmarshal(js, &doc); err != nil {
				t.Fatalf("JSON document: %v\n%s", err, js)
			}
			_, text := getURL(t, ms.url+"/metrics?format=prom")
			prom, err := obs.ParseProm(bytes.NewReader(text))
			if err != nil {
				t.Fatalf("exposition does not parse: %v\n%s", err, text)
			}
			promKinds := map[string]string{}
			for _, pm := range prom {
				promKinds[pm.Name] = pm.Type
			}

			fams := ms.s.metricFamilies()
			jsonNames, promNames := map[string]bool{}, map[string]bool{}
			for _, f := range fams {
				if jsonNames[f.name] || promNames[f.promName()] {
					t.Errorf("family %s declared twice", f.name)
				}
				jsonNames[f.name], promNames[f.promName()] = true, true
				if _, ok := doc[f.name]; !ok {
					t.Errorf("JSON document lacks family %s", f.name)
				}
				if got := promKinds[f.promName()]; got != string(f.kind) {
					t.Errorf("exposition family %s has type %q, want %q", f.promName(), got, f.kind)
				}
			}
			if len(doc) != len(fams) || len(prom) != len(fams) {
				t.Errorf("JSON document has %d keys and exposition %d families, registry %d",
					len(doc), len(prom), len(fams))
			}
			t.Logf("%d families in both documents", len(fams))
		})
	}
}

// The names the repo's own consumers read must stay put: a renamed
// JSON key decodes silently as zero, and a renamed family fails a CI
// step. The JSON keys are those of syncbench's serverCounters, of
// syncload's scrapeNode and of the CI python asserts; the Prometheus
// families are the obs-smoke and cluster-smoke -require lists plus the
// request_duration_ms buckets that syncload -cluster merges.
func TestMetricsConsumerContract(t *testing.T) {
	for _, ms := range metricsServers(t) {
		t.Run(ms.name, func(t *testing.T) {
			_, js := getURL(t, ms.url+"/metrics")
			var doc map[string]json.RawMessage
			if err := json.Unmarshal(js, &doc); err != nil {
				t.Fatalf("JSON document: %v\n%s", err, js)
			}
			keys := []string{"requests", "cache_hits", "cache_misses", "coalesced",
				"kernel_cache_hits", "kernel_cache_misses", "sim_kernel_cache_misses"}
			if ms.s.cluster != nil {
				keys = append(keys, "cluster_forward_total", "cluster_forward_errors_total",
					"cluster_hedge_total", "cluster_hedge_wins_total", "cluster_cache_fill_total")
			}
			for _, k := range keys {
				if _, ok := doc[k]; !ok {
					t.Errorf("JSON document lacks %s", k)
				}
			}
			// The consumers' own decode types: syncbench reads floats,
			// syncload int64s and a peer → count object.
			var bench struct {
				Requests     float64 `json:"requests"`
				Hits         float64 `json:"cache_hits"`
				KernelMisses float64 `json:"kernel_cache_misses"`
			}
			var load struct {
				Hits     int64            `json:"kernel_cache_hits"`
				Misses   int64            `json:"kernel_cache_misses"`
				Forwards map[string]int64 `json:"cluster_forward_total"`
				Fills    int64            `json:"cluster_cache_fill_total"`
			}
			for _, v := range []any{&bench, &load} {
				if err := json.Unmarshal(js, v); err != nil {
					t.Fatalf("consumer decode: %v\n%s", err, js)
				}
			}
			if ms.s.cluster == nil && (load.Misses != 3 || bench.KernelMisses != 3) {
				t.Errorf("kernel_cache_misses = %d, want 3 (one per analyzed recipe)", load.Misses)
			}
			if bench.Requests < 5 {
				t.Errorf("requests = %g, want at least the 5 served", bench.Requests)
			}
			if ms.s.cluster != nil {
				var forwards int64
				for _, n := range load.Forwards {
					forwards += n
				}
				if forwards == 0 {
					t.Errorf("cluster_forward_total holds no forwards: %v", load.Forwards)
				}
			}

			_, text := getURL(t, ms.url+"/metrics?format=prom")
			prom, err := obs.ParseProm(bytes.NewReader(text))
			if err != nil {
				t.Fatalf("exposition does not parse: %v\n%s", err, text)
			}
			required := []string{"requests_total", "cache_hits_total", "cache_evictions_total", "in_flight",
				"sim_kernel_cache_misses_total", "request_latency_ms", "request_duration_ms"}
			if ms.s.jobs != nil {
				required = append(required, "jobs_pending")
			}
			for _, name := range required {
				if _, ok := obs.FindProm(prom, name); !ok {
					t.Errorf("exposition lacks a %s sample", name)
				}
			}
			if _, ok := obs.PromHistogram(prom, "request_duration_ms", "endpoint", "plan"); !ok {
				t.Errorf("request_duration_ms{endpoint=plan} buckets missing")
			}
		})
	}
}

// BenchmarkRecordRequest times the metric half of finish: the request
// and error counters plus one observation into the endpoint's latency
// histogram with a trace-ID exemplar. It must not allocate once the
// endpoint's histogram exists.
func BenchmarkRecordRequest(b *testing.B) {
	m := newMetrics()
	const traceID = "4bf92f3577b34da6a3ce929d0e0e4736"
	m.record("analyze", http.StatusOK, 1.5, traceID)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.record("analyze", http.StatusOK+200*(i&1), 1.5, traceID)
	}
}
