// Command syncd serves the planning, analysis, and simulation engines
// over HTTP with content-addressed result caching, request coalescing,
// and graceful drain — standalone or as one node of a peer cluster.
//
// Usage:
//
//	syncd [-addr 127.0.0.1:8080] [-cache 1024] [-kernel-cache 256]
//	      [-max-kernel-pairs 0] [-max-kernel-bytes 0] [-max-batch-configs 64]
//	      [-workers 0] [-deadline 30s] [-max-deadline 2m] [-quiet] [-pprof]
//	      [-peers http://h2:8080,http://h3:8080] [-self http://h1:8080]
//	      [-replicas 128] [-hedge-after 0] [-health-interval 1s]
//	      [-jobs] [-max-jobs 64] [-debug-delay 0]
//	      [-trace out.json] [-manifest run.json]
//	      [-flight-spans 512] [-flight-slow 250ms] [-no-flight]
//
// Endpoints:
//
//	POST /v1/plan        run the synchronization planner
//	POST /v1/analyze     evaluate skew models over candidate clock trees
//	POST /v1/simulate    clock-propagation or hybrid-handshake simulation;
//	                     posting configs runs a batched sweep of N configs
//	                     over one topology with a shared simulation kernel
//	GET  /v1/layout.svg  render a topology (optionally with its clock tree)
//	POST /v1/jobs        start an async analysis or simulation job
//	GET  /v1/jobs/{id}   poll a job; DELETE cancels it
//	GET  /v1/jobs/{id}/stream  follow a job's progress and partial results
//	                     as NDJSON (SSE with Accept: text/event-stream)
//	GET  /healthz        liveness
//	GET  /metrics        counters, cache stats, latency histograms and
//	                     quantiles as JSON, or Prometheus text with
//	                     ?format=prom; both carry the same families
//	                     (a Prometheus counter gains _total), and the
//	                     quantiles are interpolated within the fixed
//	                     0.5 ms-10 s latency buckets over the server's
//	                     lifetime
//	GET  /debug/flightrecorder  the always-on flight recorder: recent
//	                     request span trees plus slow/error captures
//	                     (?trace_id= and ?attr=k=v filter)
//
// Observability: every request is traced. The flight recorder keeps the
// last -flight-spans completed spans in a ring and captures the full
// span tree of any request slower than -flight-slow or ending in error,
// with no export configured — -no-flight turns it off. -trace retains
// every span and writes one Chrome trace_event file on shutdown; in a
// cluster the per-node files merge into a single cross-node timeline
// with `obscheck -merge`. -manifest writes a provenance manifest on
// shutdown with the span summary and the flight recorder's final
// snapshot folded in.
//
// Cluster mode: -peers joins this node to a static peer group. The
// members place each other on a consistent-hash ring over request
// content addresses; any node accepts any request and forwards the ones
// a peer owns, hedging the forward after -hedge-after (0 derives the
// delay from observed peer latency percentiles; a negative value
// disables hedging). Two extra endpoints appear:
//
//	GET  /v1/cluster/info   membership, health, and hedge state
//	POST /v1/cluster/fill   accept a pushed cache entry from a peer
//
// Without -peers the daemon behaves exactly as a standalone server.
//
// Size ceiling: an array whose pair count or byte estimate exceeds
// -max-kernel-pairs / -max-kernel-bytes never gets a resident kernel.
// Its kernel is streamed, and an analysis runs on it — exact max skew
// and worst pair in bounded memory, sketch quantiles, sampled Monte
// Carlo — with "streamed": true in the response; a simulation over such
// an array answers 413 array_too_large.
//
// With -pprof the net/http/pprof profiling endpoints are additionally
// served under /debug/pprof/ (default off: profiling handlers expose
// internals and should be opted into, not ambient).
//
// -debug-delay sleeps that long before serving every request. It exists
// to stand in for a degraded node in hedging experiments (the committed
// BENCH_cluster.json slow-peer scenario) and has no production use.
//
// On SIGINT/SIGTERM the daemon stops accepting connections, lets
// in-flight requests finish (bounded by -drain-timeout), and exits 0. A
// clustered node also pushes its warm result-cache entries to their
// ring owners before exiting, so the survivors keep the cache.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/skew"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address (port 0 picks a free port)")
	cache := flag.Int("cache", 1024, "result cache entries")
	kernelCache := flag.Int("kernel-cache", 256, "skew-kernel cache entries (precomputed graph+tree geometry)")
	maxKernelPairs := flag.Int64("max-kernel-pairs", 0, "largest communicating-pair count a resident kernel may hold (0 = skew.DefaultLimits; analyses over it run streamed, simulations get 413 array_too_large)")
	maxKernelBytes := flag.Int64("max-kernel-bytes", 0, "resident-kernel memory budget in bytes per request (0 = skew.DefaultLimits; analyses over it run streamed, simulations get 413 array_too_large)")
	maxBatchConfigs := flag.Int("max-batch-configs", 64, "largest configs array a batched /v1/simulate request may carry")
	workers := flag.Int("workers", 0, "engine fan-out workers per request (0 = GOMAXPROCS)")
	deadline := flag.Duration("deadline", 30*time.Second, "default per-request deadline")
	maxDeadline := flag.Duration("max-deadline", 2*time.Minute, "cap on client-requested deadlines")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "how long to wait for in-flight requests on shutdown")
	quiet := flag.Bool("quiet", false, "suppress per-request log lines")
	withPprof := flag.Bool("pprof", false, "serve net/http/pprof endpoints under /debug/pprof/")

	peers := flag.String("peers", "", "comma-separated peer base URLs; empty runs standalone")
	self := flag.String("self", "", "this node's base URL as peers reach it (default http://<addr> once the listener is bound)")
	replicas := flag.Int("replicas", 0, "consistent-hash virtual nodes per member (0 = default)")
	hedgeAfter := flag.Duration("hedge-after", 0, "forwarded-request hedge delay: 0 adapts to observed peer latency, < 0 disables hedging")
	healthInterval := flag.Duration("health-interval", time.Second, "peer health probe period")
	withJobs := flag.Bool("jobs", true, "serve the async /v1/jobs API")
	maxJobs := flag.Int("max-jobs", 64, "most jobs tracked at once (excess creates get 429)")
	debugDelay := flag.Duration("debug-delay", 0, "sleep this long before serving each request (degraded-node stand-in for hedging experiments)")

	tracePath := flag.String("trace", "", "write a Chrome trace_event file of every span on shutdown (enables span retention)")
	manifestPath := flag.String("manifest", "", "write a run manifest JSON (span summary + flight recorder snapshot) on shutdown")
	flightSpans := flag.Int("flight-spans", 0, "flight recorder span-ring capacity (0 = default)")
	flightSlow := flag.Duration("flight-slow", 0, "request latency above which the flight recorder captures the span tree (0 = default)")
	noFlight := flag.Bool("no-flight", false, "disable the always-on flight recorder")
	flag.Parse()

	start := time.Now()
	cfg := service.Config{
		CacheEntries:       *cache,
		KernelCacheEntries: *kernelCache,
		KernelLimits:       skew.Limits{MaxPairs: *maxKernelPairs, MaxBytes: *maxKernelBytes},
		MaxBatchConfigs:    *maxBatchConfigs,
		Workers:            *workers,
		DefaultDeadline:    *deadline,
		MaxDeadline:        *maxDeadline,
		DisableJobs:        !*withJobs,
		Jobs:               jobs.Config{MaxJobs: *maxJobs},
		FlightSpans:        *flightSpans,
		FlightSlow:         *flightSlow,
		DisableFlight:      *noFlight,
	}
	if !*quiet {
		cfg.LogWriter = os.Stderr
	}
	// -trace asks for a full span export, so the tracer must retain
	// spans; without it the server's internal tracer keeps nothing and
	// serves only the flight recorder.
	var tracer *obs.Tracer
	if *tracePath != "" {
		tracer = obs.NewTracer()
		cfg.Tracer = tracer
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "syncd:", err)
		os.Exit(1)
	}

	var s *service.Server
	if *peers != "" {
		selfURL := *self
		if selfURL == "" {
			selfURL = "http://" + ln.Addr().String()
		}
		cfg.Cluster = &service.ClusterConfig{
			Self:           selfURL,
			Peers:          splitPeers(*peers),
			Replicas:       *replicas,
			HealthInterval: *healthInterval,
			HedgePolicy:    hedgePolicy(*hedgeAfter),
		}
		s, err = service.NewClusterServer(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "syncd:", err)
			os.Exit(1)
		}
	} else {
		s = service.NewServer(cfg)
	}
	defer s.Close()

	var handler http.Handler = s
	if *debugDelay > 0 {
		inner := handler
		d := *debugDelay
		handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			// Peer probes stay fast so a deliberately slow node is still
			// seen as alive — slow is exactly what the hedge is for.
			if r.URL.Path != "/healthz" {
				time.Sleep(d)
			}
			inner.ServeHTTP(w, r)
		})
	}
	if *withPprof {
		// Explicit registrations on a private mux: importing net/http/pprof
		// for its side effect would pollute http.DefaultServeMux and serve
		// the profiles even without the flag.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/", handler)
		handler = mux
	}
	srv := &http.Server{Handler: handler}

	// The announcement goes to stdout so scripts (CI smoke, syncload
	// wrappers) can scrape the actual port when -addr ends in :0.
	fmt.Printf("listening on http://%s\n", ln.Addr())

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)

	select {
	case sig := <-stop:
		fmt.Fprintf(os.Stderr, "syncd: received %s, draining\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "syncd: drain:", err)
			os.Exit(1)
		}
		<-serveErr // Serve has returned ErrServerClosed by now
		if *peers != "" {
			if n := s.DrainToPeers(ctx); n > 0 {
				fmt.Fprintf(os.Stderr, "syncd: migrated %d cache entries to peers\n", n)
			}
		}
		writeShutdownArtifacts(s, tracer, *tracePath, *manifestPath, start)
		fmt.Fprintln(os.Stderr, "syncd: drained cleanly")
	case err := <-serveErr:
		fmt.Fprintln(os.Stderr, "syncd:", err)
		os.Exit(1)
	}
}

// writeShutdownArtifacts exports the run's observability artifacts
// after a clean drain: the full Chrome trace (with -trace) and the run
// manifest folding in the flight recorder's final snapshot (with
// -manifest). Export failures are reported but never change the exit
// status — losing a trace must not turn a clean drain into a crash.
func writeShutdownArtifacts(s *service.Server, tracer *obs.Tracer, tracePath, manifestPath string, start time.Time) {
	if tracePath != "" && tracer != nil {
		f, err := os.Create(tracePath)
		if err == nil {
			err = tracer.WriteTrace(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "syncd: writing trace:", err)
		} else {
			fmt.Fprintf(os.Stderr, "syncd: wrote trace %s (%d spans)\n", tracePath, tracer.Len())
		}
	}
	if manifestPath != "" {
		m := obs.NewManifest(start)
		m.VisitFlags(func(record func(name, value string)) {
			flag.CommandLine.Visit(func(f *flag.Flag) { record(f.Name, f.Value.String()) })
		})
		m.Finish(tracer)
		if fr := s.FlightRecorder(); fr != nil {
			snap := fr.Snapshot("", "")
			m.Flight = &snap
		}
		if err := m.WriteFile(manifestPath); err != nil {
			fmt.Fprintln(os.Stderr, "syncd: writing manifest:", err)
		} else {
			fmt.Fprintf(os.Stderr, "syncd: wrote manifest %s\n", manifestPath)
		}
	}
}

// splitPeers parses the -peers list, dropping empty entries so trailing
// commas are harmless.
func splitPeers(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, strings.TrimRight(p, "/"))
		}
	}
	return out
}

// hedgePolicy maps the -hedge-after flag: negative disables, zero
// adapts to the observed peer latency distribution, positive is fixed.
func hedgePolicy(d time.Duration) cluster.HedgePolicy {
	switch {
	case d < 0:
		return cluster.HedgePolicy{}
	case d == 0:
		return cluster.HedgePolicy{Adaptive: true, Percentile: 95, Max: 2 * time.Second}
	default:
		return cluster.HedgePolicy{HedgeAfter: d}
	}
}
