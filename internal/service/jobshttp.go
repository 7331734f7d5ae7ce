// The async /v1/jobs API: POST /v1/jobs accepts an analyze or simulate
// request too large to hold an HTTP connection open for (1024²+ mesh
// analyses, long Monte-Carlo sweeps), runs it in the background under
// the jobs manager, and streams partial results — trials-completed
// progress and incrementally tightening Monte-Carlo quantiles — over
// GET /v1/jobs/{id}/stream as NDJSON (or SSE on request).
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"time"

	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/skew"
	"repro/internal/stats"
)

// JobRequest is the body of POST /v1/jobs: exactly one of Analyze or
// Simulate, an optional client-chosen ID (defaulted from the request's
// content address), and an optional progress granularity.
type JobRequest struct {
	ID string `json:"id,omitempty"`
	// Kind is optional; it is inferred from whichever request is set and
	// validated against it when both are given.
	Kind     string           `json:"kind,omitempty"`
	Analyze  *AnalyzeRequest  `json:"analyze,omitempty"`
	Simulate *SimulateRequest `json:"simulate,omitempty"`
	// ChunkTrials is how many Monte-Carlo trials run between progress
	// events. Default 256.
	ChunkTrials int `json:"chunk_trials,omitempty"`
}

// handleJobs dispatches the /v1/jobs collection: POST creates, GET lists.
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		s.handleJobCreate(w, r)
	case http.MethodGet:
		s.handleJobList(w, r)
	default:
		w.Header().Set("Allow", "GET, POST")
		writeError(w, http.StatusMethodNotAllowed, "method not allowed; use GET or POST", ReasonMethodNotAllowed)
	}
}

func (s *Server) handleJobCreate(w http.ResponseWriter, r *http.Request) {
	raw, err := readJSON(w, r, s.cfg.MaxBodyBytes)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error(), ReasonBadRequest)
		return
	}
	var req JobRequest
	if err := json.Unmarshal(raw, &req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("decoding job request: %v", err), ReasonBadRequest)
		return
	}
	kind, run, canonical, err := s.prepareJob(&req)
	if err != nil {
		writeError(w, statusOf(err), err.Error(), reasonOf(err))
		return
	}
	id := req.ID
	if id == "" {
		// Content-derived default ID: re-posting the identical work is a
		// visible 409 instead of a silent duplicate computation.
		id = kind + "-" + cacheKey("job:"+kind, canonical)[:12]
	}
	j, err := s.jobs.Create(id, kind, raw, s.traceJob(r, kind, id, run))
	switch {
	case errors.Is(err, jobs.ErrExists):
		writeError(w, http.StatusConflict, err.Error(), ReasonJobExists)
		return
	case errors.Is(err, jobs.ErrFull):
		writeError(w, http.StatusTooManyRequests, err.Error(), ReasonTooManyJobs)
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, err.Error(), ReasonBadRequest)
		return
	}
	s.metrics.jobsCreated.Add(1)
	writeJSON(w, http.StatusAccepted, j.Snapshot())
}

// traceJob wraps a job's run function so its background execution is a
// traced operation. The job outlives the submitting request, so its
// root span adopts the submitter's span context as a remote parent —
// the same mechanism used for cross-node forwards — which makes the
// whole async computation parent under the POST /v1/jobs span in a
// merged trace even though it runs on its own context.
func (s *Server) traceJob(r *http.Request, kind, id string, run jobs.RunFunc) jobs.RunFunc {
	parent := obs.SpanContextOf(r.Context())
	requestID := requestIDFrom(r.Context())
	return func(ctx context.Context, job *jobs.Job) (json.RawMessage, string, error) {
		ctx = obs.WithTracer(ctx, s.tracer)
		if parent.Valid() {
			ctx = obs.WithRemoteParent(ctx, parent)
		}
		ctx, span := obs.Start(ctx, "job.run",
			obs.String("kind", kind), obs.String("job_id", id),
			obs.String("request_id", requestID))
		defer span.End()
		out, reason, err := run(ctx, job)
		if err != nil {
			span.Annotate(obs.String("error", err.Error()))
		}
		return out, reason, err
	}
}

// prepareJob validates a JobRequest and binds its run function. It
// returns the job kind, the runner, and the inner request's canonical
// bytes (the basis of the default job ID).
func (s *Server) prepareJob(req *JobRequest) (kind string, run jobs.RunFunc, canonical []byte, err error) {
	if req.Analyze != nil && req.Simulate != nil {
		return "", nil, nil, badRequest("give exactly one of analyze and simulate, not both")
	}
	chunk := req.ChunkTrials
	if chunk <= 0 {
		chunk = 256
	}
	switch {
	case req.Analyze != nil:
		kind = "analyze"
		req.Analyze.applyDefaults()
		if canonical, err = canonicalize(req.Analyze); err != nil {
			return "", nil, nil, err
		}
		run = s.runAnalyzeJob(req.Analyze, chunk)
	case req.Simulate != nil:
		kind = "simulate"
		req.Simulate.applyDefaults()
		if canonical, err = canonicalize(req.Simulate); err != nil {
			return "", nil, nil, err
		}
		run = s.runSimulateJob(req.Simulate)
	default:
		return "", nil, nil, badRequest("job needs an analyze or simulate request")
	}
	if req.Kind != "" && req.Kind != kind {
		return "", nil, nil, badRequest("kind %q does not match the %s request given", req.Kind, kind)
	}
	return kind, run, canonical, nil
}

func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Jobs []jobs.Snapshot `json:"jobs"`
	}{Jobs: s.jobs.List()})
}

// handleJob serves one job: GET returns its snapshot, DELETE cancels it.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	switch r.Method {
	case http.MethodGet:
		j, err := s.jobs.Get(id)
		if err != nil {
			writeError(w, http.StatusNotFound, err.Error(), ReasonJobNotFound)
			return
		}
		writeJSON(w, http.StatusOK, j.Snapshot())
	case http.MethodDelete:
		j, err := s.jobs.Cancel(id)
		if err != nil {
			writeError(w, http.StatusNotFound, err.Error(), ReasonJobNotFound)
			return
		}
		writeJSON(w, http.StatusOK, j.Snapshot())
	default:
		w.Header().Set("Allow", "GET, DELETE")
		writeError(w, http.StatusMethodNotAllowed, "method not allowed; use GET or DELETE", ReasonMethodNotAllowed)
	}
}

// handleJobStream replays a job's ordered event history and follows the
// live tail until the terminal event, as NDJSON by default or SSE when
// the client asks for text/event-stream. A client connecting at any
// point sees the identical gapless sequence from seq 0.
func (s *Server) handleJobStream(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, "method not allowed; use GET", ReasonMethodNotAllowed)
		return
	}
	j, err := s.jobs.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err.Error(), ReasonJobNotFound)
		return
	}
	history, live, cancel := j.Subscribe()
	defer cancel()

	sse := strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.Header().Set("Cache-Control", "no-store")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	emit := func(ev jobs.Event) {
		line, err := json.Marshal(ev)
		if err != nil {
			return
		}
		if sse {
			fmt.Fprintf(w, "data: %s\n\n", line)
		} else {
			fmt.Fprintf(w, "%s\n", line)
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
	for _, ev := range history {
		emit(ev)
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case ev, ok := <-live:
			if !ok {
				return
			}
			emit(ev)
		}
	}
}

// readJSON reads a bounded request body.
func readJSON(w http.ResponseWriter, r *http.Request, max int64) ([]byte, error) {
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, max))
	if err != nil {
		return nil, fmt.Errorf("reading job request: %v", err)
	}
	return raw, nil
}

// writeJSON answers with v as an indented JSON document.
func writeJSON(w http.ResponseWriter, status int, v any) {
	b, _ := json.MarshalIndent(v, "", "  ")
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(b, '\n'))
}

// MCPartial is the partial-result document attached to an analyze job's
// progress events: the Monte-Carlo estimate so far for the tree being
// swept. MaxSkew is a running maximum (monotone non-decreasing by
// construction); the quantiles are batched stats.Percentiles over every
// trial so far, and CI95 is the normal-approximation half-width of the
// mean's 95% confidence interval — the number that tightens as trials
// accumulate.
type MCPartial struct {
	Tree        string  `json:"tree"`
	TrialsDone  int     `json:"trials_done"`
	TrialsTotal int     `json:"trials_total"`
	MaxSkew     float64 `json:"max_skew"`
	Mean        float64 `json:"mean"`
	P50         float64 `json:"p50"`
	P90         float64 `json:"p90"`
	P99         float64 `json:"p99"`
	CI95        float64 `json:"ci95_halfwidth"`
}

func mcPartial(tree string, samples []float64, total int) json.RawMessage {
	qs := stats.Percentiles(samples, 50, 90, 99)
	mean := stats.Mean(samples)
	ci := 0.0
	if n := len(samples); n > 1 {
		ci = 1.96 * stats.StdDev(samples) / math.Sqrt(float64(n))
	}
	doc := MCPartial{
		Tree: tree, TrialsDone: len(samples), TrialsTotal: total,
		MaxSkew: stats.Max(samples), Mean: mean,
		P50: qs[0], P90: qs[1], P99: qs[2], CI95: ci,
	}
	b, _ := json.Marshal(doc)
	return b
}

// StreamedPartial is the partial-result document attached to a job's
// progress events while a tree runs on the kernel's streamed tier:
// shard-level progress plus the statistics so far. MaxSkew is a running
// exact maximum over the pairs scanned; the quantiles come from the
// partially merged sketch and tighten as shards fold in.
type StreamedPartial struct {
	Tree       string  `json:"tree"`
	Streamed   bool    `json:"streamed"`
	PairsDone  int64   `json:"pairs_done"`
	PairsTotal int64   `json:"pairs_total"`
	ShardsDone int     `json:"shards_done"`
	Shards     int     `json:"shards"`
	MaxSkew    float64 `json:"max_skew"`
	P50        float64 `json:"p50"`
	P90        float64 `json:"p90"`
	P99        float64 `json:"p99"`
}

func streamedPartial(tree string, p skew.StreamPartial) json.RawMessage {
	doc := StreamedPartial{
		Tree: tree, Streamed: true,
		PairsDone: p.PairsDone, PairsTotal: p.PairsTotal,
		ShardsDone: p.ShardsDone, Shards: p.Shards,
		MaxSkew: p.MaxSkew, P50: p.P50, P90: p.P90, P99: p.P99,
	}
	b, _ := json.Marshal(doc)
	return b
}

// analyzeProgress is an analyze job's progress sink: the job its
// partial results are published to, and how many Monte-Carlo trials
// run between two of them.
type analyzeProgress struct {
	job   *jobs.Job
	chunk int
}

// streamed returns the progress hook of the i-th tree's streamed scan,
// which publishes shard-level partials; nil without a sink.
func (p *analyzeProgress) streamed(req *AnalyzeRequest, i int) func(skew.StreamPartial) {
	if p == nil {
		return nil
	}
	trials := req.MonteCarloTrials
	return func(sp skew.StreamPartial) {
		p.job.Publish(i*trials, trials*len(req.Trees), streamedPartial(req.Trees[i], sp))
	}
}

// monteCarloChunks runs the i-th tree's Monte-Carlo trials on k, a
// resident kernel, in chunks of p.chunk, publishing the partial
// quantiles after each, and returns the worst skew drawn. Trees run in
// order, so the trials of the trees before this one are done.
func (s *Server) monteCarloChunks(ctx context.Context, k *skew.Kernel, req *AnalyzeRequest, i int, p *analyzeProgress) (float64, error) {
	trials, tree, band := req.MonteCarloTrials, req.Trees[i], req.band()
	rng, fork := stats.NewRNG(req.Seed), stats.NewRNG(0)
	samples := make([]float64, 0, trials)
	for start := 0; start < trials; start += p.chunk {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		end := min(start+p.chunk, trials)
		_, cs := obs.Start(ctx, "job.mc_chunk", obs.String("tree", tree), obs.Int("trials", int64(end-start)))
		chunkStart := time.Now()
		// Forking the RNG by absolute trial index makes the chunked
		// sweep reproduce Kernel.MonteCarlo bit for bit; each fork
		// reseeds one generator in place.
		for t := start; t < end; t++ {
			samples = append(samples, k.Trial(band, rng.ForkInto(int64(t), fork)))
		}
		if sec := time.Since(chunkStart).Seconds(); sec > 0 {
			s.metrics.jobTrials.Observe(float64(end-start)/sec, cs.TraceID())
		}
		cs.End()
		p.job.Publish(i*trials+end, trials*len(req.Trees), mcPartial(tree, samples, trials))
	}
	return stats.Max(samples), nil
}

// jobOutcome maps a compute function's answer onto a job's: the
// response body, or the error with its machine-readable reason.
func jobOutcome(res response, err error) (json.RawMessage, string, error) {
	if err != nil {
		return nil, reasonOf(err), err
	}
	return res.body, "", nil
}

// runAnalyzeJob is the analyze job body: POST /v1/analyze's analysis,
// bit-identical, with partial results streamed while it runs.
func (s *Server) runAnalyzeJob(req *AnalyzeRequest, chunk int) jobs.RunFunc {
	return func(ctx context.Context, job *jobs.Job) (json.RawMessage, string, error) {
		return jobOutcome(s.analyze(ctx, req, &analyzeProgress{job: job, chunk: chunk}))
	}
}

// runSimulateJob is the simulate job body: the exact computeSimulate
// path (single form or batch), run to completion in the background. It
// emits no intermediate partials — simulation sweeps amortize through
// the batch form — but gains the job API's cancellation, retention, and
// result polling.
func (s *Server) runSimulateJob(req *SimulateRequest) jobs.RunFunc {
	return func(ctx context.Context, job *jobs.Job) (json.RawMessage, string, error) {
		// The job context has no HTTP deadline; apply the server's max so
		// a runaway sweep cannot pin a worker slot forever.
		ctx, cancel := context.WithTimeout(ctx, s.cfg.MaxDeadline)
		defer cancel()
		return jobOutcome(s.computeSimulate(ctx, req))
	}
}
