// Package service exposes the repository's planning, analysis, and
// simulation engines as a concurrent HTTP JSON API with a production
// hot path: canonical request hashing feeding a bounded LRU result
// cache, singleflight coalescing of identical in-flight requests, a
// bounded worker pool for engine fan-out, per-request deadlines, and
// one metric registry rendered as JSON and Prometheus text at /metrics.
//
// Every endpoint's result is a pure function of its canonicalized
// request — randomness is always seeded from request fields — so the
// cache needs no invalidation and coalescing is semantically invisible.
package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/hybrid"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/skew"
)

// Config parameterizes a Server. The zero value is usable: NewServer
// fills in the defaults documented on each field.
type Config struct {
	// CacheEntries bounds the result cache. Default 1024.
	CacheEntries int
	// KernelCacheEntries bounds the skew-kernel cache: precomputed
	// (graph, tree) geometry shared across requests that differ only in
	// model, trial count, or seed. Default 256.
	KernelCacheEntries int
	// KernelLimits bounds the size of any one resident skew kernel. An
	// analysis over the limits runs on the kernel's streamed tier; a
	// simulation is answered with HTTP 413 and reason "array_too_large"
	// instead of index corruption or an OOM kill. Zero fields take
	// skew.DefaultLimits.
	KernelLimits skew.Limits
	// Workers bounds each request's engine fan-out (candidate trees,
	// Monte-Carlo trials, simulation trials, batch configs). Default
	// GOMAXPROCS.
	Workers int
	// MaxBatchConfigs bounds the configs array of one batched simulate
	// request. Default 64.
	MaxBatchConfigs int
	// DefaultDeadline applies when a request carries no timeout_ms.
	// Default 30s.
	DefaultDeadline time.Duration
	// MaxDeadline caps client-supplied timeouts. Default 2m.
	MaxDeadline time.Duration
	// MaxBodyBytes bounds request bodies. Default 8 MiB.
	MaxBodyBytes int64
	// LogWriter receives one structured JSON log line per request.
	// Default: logging disabled.
	LogWriter io.Writer
	// Tracer, when set, records one span per request (plus the engine
	// spans underneath it) into the given tracer. Default: the server
	// still runs a non-retaining tracer to feed the flight recorder, so
	// per-request spans exist but accumulate nowhere except its bounded
	// ring (set DisableFlight too for zero per-request cost).
	Tracer *obs.Tracer
	// FlightSpans bounds the flight recorder's span ring. <= 0 takes
	// obs.DefaultFlightSpans.
	FlightSpans int
	// FlightSlow is the threshold above which a completed request's full
	// span tree is captured for post-hoc diagnosis. <= 0 takes
	// obs.DefaultFlightSlow.
	FlightSlow time.Duration
	// DisableFlight turns the always-on flight recorder off.
	DisableFlight bool
	// Cluster, when set, joins this server to a static peer group:
	// requests are routed on a consistent-hash ring over content-
	// addressed keys, forwarded to their owning node with hedging, and
	// peer-computed results fill the local cache. Only honored by
	// NewClusterServer; nil keeps single-node behavior byte-identical.
	Cluster *ClusterConfig
	// DisableJobs turns off the async /v1/jobs API. Default: enabled.
	DisableJobs bool
	// Jobs parameterizes the async job manager (zero fields take the
	// jobs package defaults).
	Jobs jobs.Config
}

func (c Config) withDefaults() Config {
	if c.CacheEntries == 0 {
		c.CacheEntries = 1024
	}
	if c.KernelCacheEntries == 0 {
		c.KernelCacheEntries = 256
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.MaxBatchConfigs <= 0 {
		c.MaxBatchConfigs = 64
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 30 * time.Second
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 2 * time.Minute
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	return c
}

// response is a finished endpoint result, the unit stored in the cache
// and shared between coalesced callers.
type response struct {
	status      int
	contentType string
	body        []byte
}

func jsonResponse(body []byte) response {
	return response{status: 200, contentType: "application/json", body: body}
}

// marshalResponse encodes v as the indented JSON body of a 200.
func marshalResponse(v any) (response, error) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return response{}, fmt.Errorf("service: encoding response: %w", err)
	}
	return jsonResponse(append(b, '\n')), nil
}

// Server is the syncd HTTP handler. Construct with NewServer; it is
// safe for concurrent use and carries no global state, so tests can run
// many side by side.
type Server struct {
	cfg   Config
	cache *lru[response]
	// The engine caches hold immutable per-(graph, recipe)
	// precomputations reused across models, regimes, seeds, trial
	// counts, and batch sweeps, each built once per engineIdentity:
	// skew kernels of either tier, which serve both analyze and clock
	// simulations (a streamed-tier kernel holds the tree, and the graph
	// its CSR pair index, 4 B/pair + 8 B/cell against the resident
	// tier's 16 B/pair); and hybrid systems.
	kernels       *engineCache[*skew.Kernel]
	hybridSystems *engineCache[*hybrid.System]
	flight        *flightGroup[response]
	metrics       *metrics
	mux           *http.ServeMux
	logger        *log.Logger
	nextReq       atomic.Int64 // request-ID counter

	// tracer is the effective tracer every request context carries:
	// cfg.Tracer when set, otherwise a non-retaining tracer that exists
	// only to feed the flight recorder. Nil only with DisableFlight and
	// no cfg.Tracer.
	tracer *obs.Tracer
	// recorder is the always-on flight recorder behind
	// GET /debug/flightrecorder (nil with DisableFlight).
	recorder *obs.FlightRecorder

	// cluster is non-nil only for servers built with NewClusterServer;
	// every nil check below is the single-node fast path.
	cluster *clusterState
	// jobs is the async job manager behind /v1/jobs (nil when disabled).
	jobs *jobs.Manager

	// computeGate, when set (tests only), is called at the start of
	// every cache-miss computation. Tests use it as a barrier to hold
	// computations open while concurrent identical requests pile up.
	computeGate func(endpoint string)
}

// NewServer builds a Server with cfg (zero fields defaulted).
func NewServer(cfg Config) *Server {
	cfg = cfg.withDefaults()
	m, n := newMetrics(), cfg.KernelCacheEntries
	s := &Server{
		cfg:           cfg,
		cache:         newLRU[response](cfg.CacheEntries),
		kernels:       newEngineCache[*skew.Kernel]("kernel", n, &m.kernelHits, &m.kernelMisses),
		hybridSystems: newEngineCache[*hybrid.System]("hybridsys", n, &m.simKernelHits, &m.simKernelMisses),
		flight:        newFlightGroup[response](),
		metrics:       m,
		mux:           http.NewServeMux(),
	}
	if cfg.LogWriter != nil {
		s.logger = log.New(cfg.LogWriter, "", 0)
	}
	s.tracer = cfg.Tracer
	if !cfg.DisableFlight {
		s.recorder = obs.NewFlightRecorder(cfg.FlightSpans, cfg.FlightSlow)
		if s.tracer == nil {
			// Always-on mode: spans exist for the recorder's ring but are
			// not retained for export, keeping memory bounded forever.
			s.tracer = obs.NewTracer()
			s.tracer.SetRetain(false)
		}
		s.tracer.SetFlight(s.recorder)
	}
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/debug/flightrecorder", s.handleFlightRecorder)
	s.mux.HandleFunc("/v1/plan", post(decoded(s, "plan", func(r *PlanRequest) { r.applyDefaults() }, timeoutOfPlan, s.computePlan)))
	s.mux.HandleFunc("/v1/analyze", post(decoded(s, "analyze", func(r *AnalyzeRequest) { r.applyDefaults() }, timeoutOfAnalyze, s.computeAnalyze)))
	s.mux.HandleFunc("/v1/simulate", post(decoded(s, "simulate", func(r *SimulateRequest) { r.applyDefaults() }, timeoutOfSimulate, s.computeSimulate)))
	s.mux.HandleFunc("/v1/layout.svg", s.handleLayout)
	if !cfg.DisableJobs {
		s.jobs = jobs.NewManager(cfg.Jobs)
		s.mux.HandleFunc("/v1/jobs", s.handleJobs)
		s.mux.HandleFunc("/v1/jobs/{id}", s.handleJob)
		s.mux.HandleFunc("/v1/jobs/{id}/stream", s.handleJobStream)
	}
	return s
}

// NewClusterServer builds a Server joined to the peer group described by
// cfg.Cluster (which must be non-nil). The returned server additionally
// serves /v1/cluster/info and /v1/cluster/fill, and routes cacheable
// requests across the ring.
func NewClusterServer(cfg Config) (*Server, error) {
	if cfg.Cluster == nil {
		return nil, fmt.Errorf("service: NewClusterServer needs Config.Cluster")
	}
	s := NewServer(cfg)
	cs, err := newClusterState(*cfg.Cluster)
	if err != nil {
		return nil, err
	}
	s.cluster = cs
	s.mux.HandleFunc("/v1/cluster/info", s.handleClusterInfo)
	s.mux.HandleFunc("/v1/cluster/fill", s.handleClusterFill)
	return s, nil
}

// Close releases the server's background resources: the cluster health
// probe loop and the job manager (cancelling any running jobs). The
// HTTP handler itself holds no connections and needs no other shutdown.
func (s *Server) Close() {
	if s.cluster != nil {
		s.cluster.stop()
	}
	if s.jobs != nil {
		s.jobs.Close()
	}
}

// requestIDKey carries the request's ID through its context.
type requestIDKey struct{}

// requestIDFrom returns the request ID assigned in ServeHTTP ("" for
// contexts that never passed through it, e.g. direct handler tests).
func requestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}

// ServeHTTP implements http.Handler. Every request is assigned an ID —
// the client's X-Request-ID when present, otherwise a process-unique
// counter value — echoed in the response's X-Request-ID header and
// attached to the request's log line and span.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id := r.Header.Get("X-Request-ID")
	if id == "" {
		id = "syncd-" + strconv.FormatInt(s.nextReq.Add(1), 10)
	}
	w.Header().Set("X-Request-ID", id)
	ctx := context.WithValue(r.Context(), requestIDKey{}, id)
	ctx = obs.WithTracer(ctx, s.tracer)
	// A forwarded/hedged/drained request carries the sender's span
	// identity; adopting it parents this node's spans under the remote
	// span so merged traces read as one causal story.
	if v := r.Header.Get(obs.TraceHeader); v != "" {
		if sc, err := obs.ParseSpanContext(v); err == nil {
			ctx = obs.WithRemoteParent(ctx, sc)
		}
	}
	s.mux.ServeHTTP(w, r.WithContext(ctx))
}

// FlightRecorder returns the server's always-on flight recorder (nil
// when disabled), for manifest snapshots at shutdown.
func (s *Server) FlightRecorder() *obs.FlightRecorder { return s.recorder }

// handleFlightRecorder serves GET /debug/flightrecorder: the recorder's
// recent-span ring and slow/error captures. Query parameters narrow the
// span list: ?trace_id=… to one trace, ?attr=key=value (e.g.
// attr=request_id=abc) to spans carrying that attribute.
func (s *Server) handleFlightRecorder(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, "method not allowed; use GET", ReasonMethodNotAllowed)
		return
	}
	if s.recorder == nil {
		writeError(w, http.StatusNotFound, "flight recorder disabled", ReasonBadRequest)
		return
	}
	snap := s.recorder.Snapshot(r.URL.Query().Get("trace_id"), r.URL.Query().Get("attr"))
	b, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		writeError(w, http.StatusInternalServerError, fmt.Sprintf("encoding snapshot: %v", err), ReasonInternal)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(b, '\n'))
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, "{\"status\":\"ok\",\"uptime_s\":%.1f}\n", time.Since(s.metrics.start).Seconds())
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "prom" {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.Write(renderProm(s.metricFamilies()))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(renderJSON(s.metricFamilies()))
}

func timeoutOfPlan(r *PlanRequest) int64         { return r.TimeoutMS }
func timeoutOfAnalyze(r *AnalyzeRequest) int64   { return r.TimeoutMS }
func timeoutOfSimulate(r *SimulateRequest) int64 { return r.TimeoutMS }

// post restricts a handler to the POST method.
func post(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			writeError(w, http.StatusMethodNotAllowed, "method not allowed; use POST", ReasonMethodNotAllowed)
			return
		}
		h(w, r)
	}
}

// forwardSpec is everything serveKeyed needs to relay a request to its
// owning peer: the ring routing key (the engine's route key when the
// endpoint has one, so every request sharing an engine lands on the
// same node) and the raw request to replay.
type forwardSpec struct {
	routeKey string
	method   string
	path     string
	body     []byte
}

// affinityKeyer lets a request type override the ring routing key with
// the route key of the engine it will need, instead of its full result
// key. Routing on engine affinity is what makes each distinct engine
// build happen exactly once cluster-wide.
type affinityKeyer interface {
	affinityKey() (string, bool)
}

// decoded adapts one typed compute function into the shared serving
// flow: decode body → apply defaults → canonicalize → hash → cache →
// singleflight → compute with deadline → record → respond.
func decoded[R any](s *Server, endpoint string, defaults func(*R), timeoutMS func(*R) int64, compute func(context.Context, *R) (response, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req R
		// The body is read fully (rather than streamed into the decoder)
		// so cluster mode can replay the identical bytes to a peer.
		raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
		if err != nil {
			s.finish(w, r, endpoint, time.Now(), nil, response{}, badRequest("decoding request: %v", err), "")
			return
		}
		if err := json.Unmarshal(raw, &req); err != nil {
			s.finish(w, r, endpoint, time.Now(), nil, response{}, badRequest("decoding request: %v", err), "")
			return
		}
		defaults(&req)
		canonical, err := canonicalize(&req)
		if err != nil {
			s.finish(w, r, endpoint, time.Now(), nil, response{}, err, "")
			return
		}
		key := cacheKey(endpoint, canonical)
		var fwd *forwardSpec
		if s.cluster != nil {
			fwd = &forwardSpec{routeKey: key, method: http.MethodPost, path: r.URL.Path, body: raw}
			if ak, ok := any(&req).(affinityKeyer); ok {
				if rk, ok := ak.affinityKey(); ok {
					fwd.routeKey = rk
				}
			}
		}
		s.serveKeyed(w, r, endpoint, key, timeoutMS(&req), fwd, func(ctx context.Context) (response, error) {
			return compute(ctx, &req)
		})
	}
}

// serveKeyed is the shared hot path behind every cacheable endpoint.
// With tracing enabled it records a "serve.<endpoint>" span covering the
// whole request; the compute's engine spans nest underneath, and a
// coalesced follower's span names the leader request whose computation
// it shared.
func (s *Server) serveKeyed(w http.ResponseWriter, r *http.Request, endpoint, key string, timeoutMS int64, fwd *forwardSpec, compute func(context.Context) (response, error)) {
	start := time.Now()
	reqID := requestIDFrom(r.Context())
	rctx, span := obs.Start(r.Context(), "serve."+endpoint, obs.String("request_id", reqID))
	defer span.End()
	s.metrics.inFlight.Add(1)
	defer s.metrics.inFlight.Add(-1)

	if res, ok := s.cache.Get(key); ok {
		s.metrics.hits.Add(1)
		span.Annotate(obs.String("cache", "hit"))
		s.finish(w, r, endpoint, start, span, res, nil, "hit")
		return
	}

	deadline := s.cfg.DefaultDeadline
	if timeoutMS > 0 {
		deadline = time.Duration(timeoutMS) * time.Millisecond
	}
	if deadline > s.cfg.MaxDeadline {
		deadline = s.cfg.MaxDeadline
	}
	ctx, cancel := context.WithTimeout(rctx, deadline)
	defer cancel()

	// Cluster routing, after the local cache and before any computation:
	// a request owned by a peer is forwarded (with hedging) and its 200
	// fills the local cache, so each distinct key computes on exactly one
	// node. Requests already forwarded once always serve locally — the
	// ForwardedHeader guard is what bounds relaying at one hop.
	if s.cluster != nil && fwd != nil && r.Header.Get(cluster.ForwardedHeader) == "" {
		if targets := s.cluster.targets(fwd.routeKey); len(targets) > 0 {
			s.serveForwarded(ctx, w, r, endpoint, key, start, span, fwd, targets)
			return
		}
	}

	res, err, coalesced, leader := s.flight.Do(ctx, key, reqID, func() (response, error) {
		if s.computeGate != nil {
			s.computeGate(endpoint)
		}
		s.metrics.computes.Add(1)
		res, err := compute(ctx)
		if err == nil {
			s.cache.Put(key, res)
		}
		return res, err
	})
	cacheState := "miss"
	if coalesced {
		cacheState = "coalesced"
		s.metrics.coalesced.Add(1)
		span.Annotate(obs.String("leader", leader))
	} else {
		s.metrics.misses.Add(1)
	}
	span.Annotate(obs.String("cache", cacheState))
	s.finish(w, r, endpoint, start, span, res, err, cacheState)
}

// handleLayout serves GET /v1/layout.svg, translating query parameters
// into a LayoutRequest so layouts share the content-addressed cache.
func (s *Server) handleLayout(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, "method not allowed; use GET", ReasonMethodNotAllowed)
		return
	}
	req, err := layoutRequestFromQuery(r)
	if err != nil {
		s.finish(w, r, "layout", time.Now(), nil, response{}, err, "")
		return
	}
	canonical, err := canonicalize(req)
	if err != nil {
		s.finish(w, r, "layout", time.Now(), nil, response{}, err, "")
		return
	}
	key := cacheKey("layout", canonical)
	// Layouts stay local in cluster mode: they build no kernel, so there
	// is no affinity to exploit and nothing worth a network hop.
	s.serveKeyed(w, r, "layout", key, 0, nil, func(ctx context.Context) (response, error) {
		return s.computeLayout(ctx, req)
	})
}

func layoutRequestFromQuery(r *http.Request) (*LayoutRequest, error) {
	q := r.URL.Query()
	req := &LayoutRequest{
		Topology: TopologySpec{Kind: q.Get("kind")},
		Tree:     q.Get("tree"),
		Caption:  q.Get("caption"),
	}
	if req.Topology.Kind == "" {
		return nil, badRequest("layout needs a kind query parameter (linear, ring, mesh, hex, torus, tree)")
	}
	for name, dst := range map[string]*int{"n": &req.Topology.N, "rows": &req.Topology.Rows, "cols": &req.Topology.Cols} {
		if v := q.Get(name); v != "" {
			i, err := strconv.Atoi(v)
			if err != nil {
				return nil, badRequest("query parameter %s: %v", name, err)
			}
			*dst = i
		}
	}
	for name, dst := range map[string]*bool{"equalize": &req.Equalize, "hybrid": &req.Hybrid} {
		if v := q.Get(name); v != "" {
			b, err := strconv.ParseBool(v)
			if err != nil {
				return nil, badRequest("query parameter %s: %v", name, err)
			}
			*dst = b
		}
	}
	for name, dst := range map[string]*float64{"spacing": &req.Spacing, "element_size": &req.ElementSize} {
		if v := q.Get(name); v != "" {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return nil, badRequest("query parameter %s: %v", name, err)
			}
			*dst = f
		}
	}
	return req, nil
}

// finish maps a compute result onto the wire, records metrics (the
// latency histogram takes the span's trace ID as its exemplar), and
// emits the structured log line. span may be nil (decode-stage failures
// that never reached the serving flow).
func (s *Server) finish(w http.ResponseWriter, r *http.Request, endpoint string, start time.Time, span *obs.Span, res response, err error, cacheState string) {
	status := res.status
	if err != nil {
		status = statusOf(err)
		res = errorResponse(status, err.Error(), reasonOf(err))
	}
	elapsed := time.Since(start)
	s.metrics.record(endpoint, status, float64(elapsed.Nanoseconds())/1e6, span.TraceID())
	span.Annotate(obs.Int("http_status", int64(status)))
	if err != nil {
		// The "error" attr is also the flight recorder's capture trigger:
		// a failed request's span tree is retained even when fast.
		span.Annotate(obs.String("error", reasonOf(err)))
	}

	w.Header().Set("Content-Type", res.contentType)
	if cacheState != "" {
		w.Header().Set("X-Cache", cacheState)
	}
	w.WriteHeader(status)
	w.Write(res.body)

	if s.logger != nil {
		line, _ := json.Marshal(map[string]any{
			"time":        start.UTC().Format(time.RFC3339Nano),
			"request_id":  requestIDFrom(r.Context()),
			"endpoint":    endpoint,
			"method":      r.Method,
			"path":        r.URL.Path,
			"status":      status,
			"cache":       cacheState,
			"duration_ms": float64(elapsed.Nanoseconds()) / 1e6,
			"bytes":       len(res.body),
		})
		s.logger.Println(string(line))
	}
}
