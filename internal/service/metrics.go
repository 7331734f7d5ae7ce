package service

import (
	"bytes"
	"encoding/json"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/runner"
)

// metrics is the server's observability state: counters and fixed-bucket
// histograms, read into the one family list (Server.metricFamilies) that
// both /metrics documents are rendered from. The state lives on the
// server rather than in a global registry so multiple servers (tests,
// embedded use) never collide.
type metrics struct {
	start     time.Time
	requests  atomic.Int64 // all requests, any outcome
	errors    atomic.Int64 // requests answered with a non-2xx status
	hits      atomic.Int64 // responses served from the result cache
	misses    atomic.Int64 // responses computed by this request (leader)
	coalesced atomic.Int64 // responses shared from another in-flight request
	computes  atomic.Int64 // underlying engine executions
	inFlight  atomic.Int64 // requests currently being served

	kernelHits   atomic.Int64 // skew-kernel cache hits (precomputation reused)
	kernelMisses atomic.Int64 // skew-kernel cache misses (tree + kernel built)

	simKernelHits   atomic.Int64 // hybrid-system cache hits (partition and recurrence kernel reused)
	simKernelMisses atomic.Int64 // hybrid-system cache misses (hybrid system built)

	streamedFallbacks atomic.Int64 // analyses served by a streamed-tier kernel
	streamedShards    atomic.Int64 // pair shards processed by streamed analyses

	forwardErrors atomic.Int64 // forwards with no reachable target (served 502)
	hedges        atomic.Int64 // forwards whose hedge copy was sent
	hedgeWins     atomic.Int64 // ... where the hedge copy answered first
	cacheFill     atomic.Int64 // local cache entries filled from a peer

	jobsCreated atomic.Int64 // jobs accepted by POST /v1/jobs

	// Fixed-bucket histograms: identical bucket layouts on every node
	// let a fleet scraper sum them into true cluster-wide percentiles,
	// and their bucket exemplars carry trace IDs into the exposition.
	forwardHist *obs.Histogram // cluster forward+hedge latency, ms
	jobTrials   *obs.Histogram // per-chunk job throughput, trials/s

	mu        sync.Mutex
	forwards  map[string]int64          // peer URL → requests forwarded to it
	latencies map[string]*obs.Histogram // endpoint → request latency (ms), the only latency record
}

func newMetrics() *metrics {
	return &metrics{
		start:       time.Now(),
		forwardHist: obs.NewHistogram(obs.DefaultLatencyBucketsMS),
		jobTrials:   obs.NewHistogram(obs.DefaultThroughputBuckets),
		forwards:    make(map[string]int64),
		latencies:   make(map[string]*obs.Histogram),
	}
}

// record counts one finished request and observes its latency into the
// endpoint's histogram, with traceID as the bucket's exemplar.
func (m *metrics) record(endpoint string, status int, ms float64, traceID string) {
	m.requests.Add(1)
	if status >= 400 {
		m.errors.Add(1)
	}
	m.mu.Lock()
	h, ok := m.latencies[endpoint]
	if !ok {
		h = obs.NewHistogram(obs.DefaultLatencyBucketsMS)
		m.latencies[endpoint] = h
	}
	m.mu.Unlock()
	h.Observe(ms, traceID)
}

// forward counts one request forwarded to peer.
func (m *metrics) forward(peer string) {
	m.mu.Lock()
	m.forwards[peer]++
	m.mu.Unlock()
}

// metricKind is a family's type: its Prometheus TYPE and its JSON shape.
type metricKind string

const (
	counterKind   metricKind = "counter"   // a number; the Prometheus name ends in _total
	gaugeKind     metricKind = "gauge"     // a number
	histogramKind metricKind = "histogram" // buckets (with exemplars in Prometheus)
	summaryKind   metricKind = "summary"   // a latency histogram read as count, mean and p50/p95/p99
)

// series is one series of a family: the value of the family's label
// ("" when it has none) and a number or, for histograms and summaries,
// a snapshot.
type series struct {
	label string
	value float64
	hist  obs.HistogramSnapshot
}

// family is one metric family as read at scrape time.
type family struct {
	name, help string
	kind       metricKind
	label      string // the one label's name; "" when unlabelled
	series     []series
}

// promName is the family's Prometheus name: the one naming rule between
// the two documents is that a counter gains _total when it lacks it.
func (f family) promName() string {
	if f.kind == counterKind && !strings.HasSuffix(f.name, "_total") {
		return f.name + "_total"
	}
	return f.name
}

func counter(name, help string, v int64) family {
	return family{name: name, help: help, kind: counterKind, series: []series{{value: float64(v)}}}
}

func gauge(name, help string, v float64) family {
	return family{name: name, help: help, kind: gaugeKind, series: []series{{value: v}}}
}

func histogram(name, help string, h *obs.Histogram) family {
	return family{name: name, help: help, kind: histogramKind, series: []series{{hist: h.Snapshot()}}}
}

// labelled returns the series of a label → value map, sorted by label.
func labelled[V any](m map[string]V, read func(V) series) []series {
	out := make([]series, 0, len(m))
	for k, v := range m {
		sr := read(v)
		sr.label = k
		out = append(out, sr)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].label < out[j].label })
	return out
}

// metricFamilies is the server's metric registry: every family both
// /metrics documents carry, each declared once, read now. The cluster
// and job families exist only while those subsystems run.
func (s *Server) metricFamilies() []family {
	m := s.metrics
	hits := m.hits.Load()
	hitRatio, served := 0.0, hits+m.misses.Load()+m.coalesced.Load()
	if served > 0 {
		hitRatio = float64(hits) / float64(served)
	}
	ps := runner.Stats()
	fams := []family{
		counter("requests", "HTTP requests served, any outcome.", m.requests.Load()),
		counter("errors", "Requests answered with a non-2xx status.", m.errors.Load()),
		counter("cache_hits", "Responses served from the result cache.", hits),
		counter("cache_misses", "Responses computed by their own request (leaders).", m.misses.Load()),
		counter("cache_evictions", "Cache entries displaced by the capacity bound.", s.cache.Evictions()),
		gauge("cache_hit_ratio", "Share of cacheable responses served from the result cache.", hitRatio),
		counter("coalesced", "Responses shared from another in-flight request.", m.coalesced.Load()),
		counter("computes", "Underlying engine executions.", m.computes.Load()),
		counter("kernel_cache_hits", "Skew-kernel cache hits (a recipe's kernel reused by an analyze or clock simulation).", m.kernelHits.Load()),
		counter("kernel_cache_misses", "Skew-kernel cache misses (tree and kernel built).", m.kernelMisses.Load()),
		counter("kernel_cache_evictions", "Kernel cache entries displaced by the capacity bound.", s.kernels.Evictions()),
		counter("sim_kernel_cache_hits", "Hybrid-system cache hits (partition and recurrence kernel reused); clock simulations count under kernel_cache_*.", m.simKernelHits.Load()),
		counter("sim_kernel_cache_misses", "Hybrid-system cache misses (hybrid system built); clock simulations count under kernel_cache_*.", m.simKernelMisses.Load()),
		counter("streamed_fallback_total", "Analyses served by a streamed-tier kernel because the array exceeds the kernel size limits.", m.streamedFallbacks.Load()),
		counter("streamed_shards_total", "Pair shards processed by streamed analyses.", m.streamedShards.Load()),
		gauge("in_flight", "Requests currently being served.", float64(m.inFlight.Load())),
		gauge("cache_entries", "Entries currently in the result cache.", float64(s.cache.Len())),
		gauge("kernel_cache_entries", "Entries currently in the skew-kernel cache.", float64(s.kernels.Len())),
		gauge("kernel_bytes_in_use", "Estimated resident bytes of every cached skew kernel, either tier.", float64(s.kernelBytesInUse())),
		gauge("sim_kernel_cache_entries", "Entries currently in the hybrid-system cache.", float64(s.hybridSystems.Len())),
		gauge("uptime_seconds", "Seconds since the server started.", time.Since(m.start).Seconds()),
		counter("runner_tasks_started_total", "Worker-pool tasks started, process-wide.", ps.TasksStarted),
		counter("runner_tasks_done_total", "Worker-pool tasks finished, process-wide.", ps.TasksDone),
		gauge("runner_busy_workers", "Worker-pool tasks executing right now.", float64(ps.BusyWorkers)),
		gauge("runner_queue_depth", "Dispatched tasks waiting for a worker.", float64(ps.QueueDepth)),
	}
	if s.cluster != nil {
		m.mu.Lock()
		forwards := labelled(m.forwards, func(n int64) series { return series{value: float64(n)} })
		m.mu.Unlock()
		fams = append(fams,
			family{name: "cluster_forward_total", help: "Requests forwarded to their owning peer, by peer.",
				kind: counterKind, label: "peer", series: forwards},
			counter("cluster_forward_errors_total", "Forwards with no reachable target (answered 502 peer_unreachable).", m.forwardErrors.Load()),
			counter("cluster_hedge_total", "Forwards whose hedge copy was sent.", m.hedges.Load()),
			counter("cluster_hedge_wins_total", "Forwards whose hedge copy answered first.", m.hedgeWins.Load()),
			counter("cluster_cache_fill_total", "Local result-cache entries filled from a peer.", m.cacheFill.Load()),
			gauge("cluster_peers_down", "Peers currently failing health probes.", float64(len(s.cluster.health.Down()))),
			histogram("cluster_forward_duration_ms", "Forward (including hedge) round-trip latency in milliseconds; buckets sum across nodes.", m.forwardHist),
		)
	}
	if s.jobs != nil {
		byState, counts := s.jobs.Stats(), s.jobs.Counts()
		states := make([]series, 0, 5)
		for _, st := range []jobs.State{jobs.Pending, jobs.Running, jobs.Done, jobs.Failed, jobs.Canceled} {
			states = append(states, series{label: string(st), value: float64(byState[st])})
		}
		fams = append(fams,
			family{name: "jobs_by_state", help: "Tracked jobs by lifecycle state.", kind: gaugeKind, label: "state", series: states},
			counter("jobs_created", "Jobs accepted by POST /v1/jobs.", m.jobsCreated.Load()),
			gauge("jobs_pending", "Jobs admitted but not yet running.", float64(counts.Pending)),
			gauge("jobs_running", "Jobs currently executing.", float64(counts.Running)),
			counter("jobs_done_total", "Jobs that completed successfully (survives retention).", counts.DoneTotal),
			counter("jobs_failed_total", "Jobs that ended in failure (survives retention).", counts.FailedTotal),
			counter("jobs_canceled_total", "Jobs canceled before or during execution (survives retention).", counts.CanceledTotal),
			histogram("job_trials_per_second", "Per-chunk Monte-Carlo throughput of analyze jobs, trials per second.", m.jobTrials),
		)
	}
	// One snapshot per endpoint feeds both latency families.
	m.mu.Lock()
	latencies := labelled(m.latencies, func(h *obs.Histogram) series { return series{hist: h.Snapshot()} })
	m.mu.Unlock()
	return append(fams,
		family{name: "request_latency_ms", kind: summaryKind, label: "endpoint", series: latencies,
			help: "Request latency in milliseconds by endpoint (quantiles interpolated in the fixed buckets, server lifetime)."},
		family{name: "request_duration_ms", kind: histogramKind, label: "endpoint", series: latencies,
			help: "Request latency in milliseconds by endpoint (fixed buckets with trace exemplars; sums across nodes)."},
	)
}

// latencySummary is a summary series' JSON form; quantiles are
// interpolated within the histogram's fixed buckets.
type latencySummary struct {
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean_ms"`
	P50   float64 `json:"p50_ms"`
	P95   float64 `json:"p95_ms"`
	P99   float64 `json:"p99_ms"`
}

func summarize(h obs.HistogramSnapshot) latencySummary {
	if h.Count == 0 {
		return latencySummary{}
	}
	return latencySummary{Count: h.Count, Mean: h.Sum / float64(h.Count),
		P50: h.Quantile(0.5), P95: h.Quantile(0.95), P99: h.Quantile(0.99)}
}

// jsonValue is one series' value in the JSON document.
func (k metricKind) jsonValue(sr series) any {
	switch k {
	case histogramKind:
		sr.hist.Exemplars = nil // trace IDs travel in the Prometheus exposition
		return sr.hist
	case summaryKind:
		return summarize(sr.hist)
	}
	return sr.value
}

// renderJSON renders families as the GET /metrics document: one key per
// family under its registry name; a labelled family is an object keyed
// by the label's values.
func renderJSON(fams []family) []byte {
	doc := make(map[string]any, len(fams))
	for _, f := range fams {
		if f.label == "" {
			doc[f.name] = f.kind.jsonValue(f.series[0])
			continue
		}
		byLabel := make(map[string]any, len(f.series))
		for _, sr := range f.series {
			byLabel[sr.label] = f.kind.jsonValue(sr)
		}
		doc[f.name] = byLabel
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		b, _ = json.Marshal(map[string]string{"error": "encoding metrics: " + err.Error()})
	}
	return append(b, '\n')
}

// renderProm renders families in the Prometheus text exposition served
// at GET /metrics?format=prom.
func renderProm(fams []family) []byte {
	out := make([]obs.PromMetric, len(fams))
	for i, f := range fams {
		pm := obs.PromMetric{Name: f.promName(), Help: f.help, Type: string(f.kind)}
		for _, sr := range f.series {
			var labels [][2]string
			if f.label != "" {
				labels = obs.Label(f.label, sr.label)
			}
			switch f.kind {
			case histogramKind:
				pm.Samples = append(pm.Samples, obs.HistogramSamples(labels, sr.hist)...)
			case summaryKind:
				q := summarize(sr.hist)
				pm.Samples = append(pm.Samples, obs.SummarySamples(labels,
					map[string]float64{"0.5": q.P50, "0.95": q.P95, "0.99": q.P99},
					sr.hist.Sum, int64(sr.hist.Count))...)
			default:
				pm.Samples = append(pm.Samples, obs.PromSample{Labels: labels, Value: sr.value})
			}
		}
		out[i] = pm
	}
	var buf bytes.Buffer
	if err := obs.WriteProm(&buf, out); err != nil {
		// Family names are compile-time constants, so this is unreachable;
		// degrade to an exposition comment rather than a broken scrape.
		return []byte("# metrics rendering failed: " + err.Error() + "\n")
	}
	return buf.Bytes()
}
