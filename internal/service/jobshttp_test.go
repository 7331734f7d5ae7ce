package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"repro/internal/skew"
)

// streamEvent is the decoded shape of one NDJSON/SSE stream line.
type streamEvent struct {
	Seq     int64           `json:"seq"`
	State   string          `json:"state"`
	Done    int             `json:"trials_done"`
	Total   int             `json:"trials_total"`
	Partial *MCPartial      `json:"partial"`
	Result  json.RawMessage `json:"result"`
	Error   string          `json:"error"`
	Reason  string          `json:"reason"`
}

// readStream consumes GET /v1/jobs/{id}/stream to EOF — the handler
// returns after relaying the terminal event — and decodes every line.
func readStream(t *testing.T, url string) []streamEvent {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("stream status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream Content-Type %q, want application/x-ndjson", ct)
	}
	var evs []streamEvent
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var ev streamEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		evs = append(evs, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading stream: %v", err)
	}
	if len(evs) == 0 {
		t.Fatal("stream delivered no events")
	}
	return evs
}

// createJob posts a job and returns its snapshot.
func createJob(t *testing.T, base, body string) jobSnapshot {
	t.Helper()
	resp, b := postJSON(t, base+"/v1/jobs", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("create job: status %d: %s", resp.StatusCode, b)
	}
	var snap jobSnapshot
	if err := json.Unmarshal(b, &snap); err != nil {
		t.Fatalf("decoding job snapshot: %v\n%s", err, b)
	}
	if snap.ID == "" {
		t.Fatalf("job snapshot missing id: %s", b)
	}
	return snap
}

type jobSnapshot struct {
	ID     string          `json:"id"`
	Kind   string          `json:"kind"`
	State  string          `json:"state"`
	Result json.RawMessage `json:"result"`
	Error  string          `json:"error"`
}

// An analyze job computes the same bytes as the synchronous endpoint:
// same kernels, same per-trial RNG forks, bit-identical document — on
// both kernel tiers, with the certified bound, on an equalized and
// buffered recipe, and with a builder that reports its error inline.
func TestJobResultMatchesAnalyze(t *testing.T) {
	streamed := Config{KernelLimits: skew.Limits{MaxPairs: 1}}
	for _, tc := range []struct {
		name    string
		cfg     Config
		marker  string // in the endpoint's body: the case reaches its branch
		analyze string
	}{
		{"inline builder error", Config{}, `"error": "unknown tree builder`,
			`{"topology":{"kind":"mesh","n":8},"trees":["htree","greedy"],"montecarlo_trials":32,"seed":7}`},
		{"streamed", streamed, `"streamed": true`,
			`{"topology":{"kind":"mesh","n":8},"trees":["htree","spine","greedy"],"montecarlo_trials":16,"seed":7,"certified_lower_bound":true}`},
		{"certified bound", Config{}, `"certified_lower_bound": `,
			`{"topology":{"kind":"mesh","n":8},"trees":["htree","serpentine"],"montecarlo_trials":8,"certified_lower_bound":true}`},
		{"equalized buffered", Config{}, `"buffers": `,
			`{"topology":{"kind":"mesh","n":8},"trees":["htree"],"equalize":true,"buffer_spacing":1.5,"model":{"kind":"summation","eps":0.2},"montecarlo_trials":20,"seed":4}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, ts := newTestServer(t, tc.cfg)
			resp, want := postJSON(t, ts.URL+"/v1/analyze", tc.analyze)
			if resp.StatusCode != http.StatusOK || !bytes.Contains(want, []byte(tc.marker)) {
				t.Fatalf("POST /v1/analyze: status %d, want 200 with %s: %s", resp.StatusCode, tc.marker, want)
			}
			snap := createJob(t, ts.URL, fmt.Sprintf(`{"analyze":%s,"chunk_trials":8}`, tc.analyze))
			evs := readStream(t, ts.URL+"/v1/jobs/"+snap.ID+"/stream")
			last := evs[len(evs)-1]
			if last.State != "done" {
				t.Fatalf("terminal state %q (error %q), want done", last.State, last.Error)
			}
			// The stream relay compacts embedded JSON, so compare the
			// compacted forms — still a byte-level check on every value,
			// numbers included.
			var jobC, syncC bytes.Buffer
			if err := json.Compact(&jobC, last.Result); err != nil {
				t.Fatalf("compacting job result: %v", err)
			}
			if err := json.Compact(&syncC, want); err != nil {
				t.Fatalf("compacting sync result: %v", err)
			}
			if !bytes.Equal(jobC.Bytes(), syncC.Bytes()) {
				t.Fatalf("job result differs from POST /v1/analyze:\njob:  %.300s\nsync: %.300s", jobC.Bytes(), syncC.Bytes())
			}
			var got jobSnapshot
			getJSON(t, ts.URL+"/v1/jobs/"+snap.ID, &got)
			if got.State != "done" || len(got.Result) == 0 {
				t.Fatalf("snapshot after done: state=%q result-bytes=%d", got.State, len(got.Result))
			}
		})
	}
}

// A Monte-Carlo band with ε > M gets one answer, 422 unprocessable,
// from the endpoint and from a job, on both kernel tiers.
func TestInvalidMonteCarloBandUnprocessable(t *testing.T) {
	const analyze = `{"topology":{"kind":"mesh","n":4},"model":{"kind":"linear","m":1,"eps":2},"montecarlo_trials":4}`
	for _, tier := range []struct {
		name string
		cfg  Config
	}{
		{"resident", Config{}},
		{"streamed", Config{KernelLimits: skew.Limits{MaxPairs: 1}}},
	} {
		t.Run(tier.name+"/endpoint", func(t *testing.T) {
			_, ts := newTestServer(t, tier.cfg)
			resp, body := postJSON(t, ts.URL+"/v1/analyze", analyze)
			var eb ErrorBody
			if err := json.Unmarshal(body, &eb); err != nil || resp.StatusCode != http.StatusUnprocessableEntity || eb.Reason != ReasonUnprocessable {
				t.Fatalf("status %d body %s, want 422 %q", resp.StatusCode, body, ReasonUnprocessable)
			}
		})
		t.Run(tier.name+"/job", func(t *testing.T) {
			_, ts := newTestServer(t, tier.cfg)
			snap := createJob(t, ts.URL, `{"analyze":`+analyze+`}`)
			evs := readStream(t, ts.URL+"/v1/jobs/"+snap.ID+"/stream")
			if last := evs[len(evs)-1]; last.State != "failed" || last.Reason != ReasonUnprocessable {
				t.Fatalf("terminal state %q reason %q error %q, want failed %q", last.State, last.Reason, last.Error, ReasonUnprocessable)
			}
		})
	}
}

// ACCEPTANCE: the stream of a 1024² mesh Monte-Carlo job delivers
// monotonically tightening quantile estimates — gapless event sequence,
// strictly growing trial counts, ordered quantiles, a running maximum
// that never decreases, and a confidence interval that ends tighter
// than it started — and terminates with the full result document.
func TestJobStreamMonotone1024Mesh(t *testing.T) {
	if testing.Short() {
		t.Skip("1024x1024 kernel build is seconds of work; skipped in -short")
	}
	_, ts := newTestServer(t, Config{})
	body := `{"analyze":{"topology":{"kind":"mesh","n":1024},"trees":["htree"],"montecarlo_trials":64,"seed":3},"chunk_trials":8}`
	snap := createJob(t, ts.URL, body)
	evs := readStream(t, ts.URL+"/v1/jobs/"+snap.ID+"/stream")

	for i, ev := range evs {
		if ev.Seq != int64(i) {
			t.Fatalf("event %d has seq %d: stream is not gapless from 0", i, ev.Seq)
		}
	}
	var partials []*MCPartial
	lastDone := 0
	for _, ev := range evs {
		if ev.Partial == nil {
			continue
		}
		if ev.Done <= lastDone {
			t.Fatalf("trials_done %d after %d: progress must strictly increase", ev.Done, lastDone)
		}
		lastDone = ev.Done
		p := ev.Partial
		if !(p.P50 <= p.P90 && p.P90 <= p.P99 && p.P99 <= p.MaxSkew) {
			t.Fatalf("quantiles out of order at trials_done=%d: p50=%g p90=%g p99=%g max=%g",
				p.TrialsDone, p.P50, p.P90, p.P99, p.MaxSkew)
		}
		if n := len(partials); n > 0 && p.MaxSkew < partials[n-1].MaxSkew {
			t.Fatalf("max_skew decreased: %g after %g", p.MaxSkew, partials[n-1].MaxSkew)
		}
		partials = append(partials, p)
	}
	if len(partials) < 4 {
		t.Fatalf("got %d partial events, want at least 4 (64 trials / 8 per chunk)", len(partials))
	}
	first, final := partials[0], partials[len(partials)-1]
	if final.CI95 >= first.CI95 {
		t.Fatalf("confidence interval did not tighten: first half-width %g, final %g", first.CI95, final.CI95)
	}
	if final.TrialsDone != 64 {
		t.Fatalf("final partial covers %d trials, want 64", final.TrialsDone)
	}
	last := evs[len(evs)-1]
	if last.State != "done" || len(last.Result) == 0 {
		t.Fatalf("terminal event: state=%q result-bytes=%d error=%q", last.State, len(last.Result), last.Error)
	}
	var result struct {
		Results []struct {
			MonteCarloMaxSkew float64 `json:"montecarlo_max_skew"`
		} `json:"results"`
	}
	if err := json.Unmarshal(last.Result, &result); err != nil {
		t.Fatalf("decoding terminal result: %v", err)
	}
	if len(result.Results) != 1 || result.Results[0].MonteCarloMaxSkew != final.MaxSkew {
		t.Fatalf("terminal montecarlo_max_skew %v, want the last partial's max %g", result.Results, final.MaxSkew)
	}
}

// A simulate job runs the batch path to completion and stores its body.
func TestJobSimulate(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := `{"simulate":{"topology":{"kind":"ring","n":16},"mode":"clock","trials":4}}`
	snap := createJob(t, ts.URL, body)
	if snap.Kind != "simulate" {
		t.Fatalf("kind %q, want simulate", snap.Kind)
	}
	evs := readStream(t, ts.URL+"/v1/jobs/"+snap.ID+"/stream")
	last := evs[len(evs)-1]
	if last.State != "done" || len(last.Result) == 0 {
		t.Fatalf("terminal event: state=%q result-bytes=%d error=%q", last.State, len(last.Result), last.Error)
	}
	var sim struct {
		Mode   string `json:"mode"`
		Trials int    `json:"trials"`
	}
	if err := json.Unmarshal(last.Result, &sim); err != nil {
		t.Fatalf("decoding simulate result: %v", err)
	}
	if sim.Mode != "clock" || sim.Trials != 4 {
		t.Fatalf("simulate result mode=%q trials=%d: %.200s", sim.Mode, sim.Trials, last.Result)
	}
}

// Re-posting identical work without an explicit ID lands on the same
// content-derived ID and answers 409 job_exists.
func TestJobDuplicate(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := `{"analyze":{"topology":{"kind":"mesh","n":6},"trees":["htree"],"montecarlo_trials":4}}`
	snap := createJob(t, ts.URL, body)
	resp, b := postJSON(t, ts.URL+"/v1/jobs", body)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate job: status %d, want 409: %s", resp.StatusCode, b)
	}
	var eb ErrorBody
	if err := json.Unmarshal(b, &eb); err != nil || eb.Reason != ReasonJobExists {
		t.Fatalf("409 body %s, want reason %q", b, ReasonJobExists)
	}
	// An explicit distinct ID for the same work is accepted.
	snap2 := createJob(t, ts.URL, `{"id":"other","analyze":{"topology":{"kind":"mesh","n":6},"trees":["htree"],"montecarlo_trials":4}}`)
	if snap2.ID == snap.ID {
		t.Fatal("explicit ID was ignored")
	}
}

// DELETE cancels; unknown IDs answer 404 job_not_found on every route.
func TestJobCancelAndNotFound(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	snap := createJob(t, ts.URL, `{"analyze":{"topology":{"kind":"mesh","n":6},"trees":["htree"],"montecarlo_trials":4}}`)
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+snap.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("cancel: status %d", resp.StatusCode)
	}
	evs := readStream(t, ts.URL+"/v1/jobs/"+snap.ID+"/stream")
	last := evs[len(evs)-1]
	if last.State != "canceled" && last.State != "done" {
		// The tiny job may finish before the cancel lands; either terminal
		// state is legal, anything else is stuck.
		t.Fatalf("state after cancel: %q", last.State)
	}

	for _, probe := range []struct{ method, path string }{
		{http.MethodGet, "/v1/jobs/absent"},
		{http.MethodDelete, "/v1/jobs/absent"},
		{http.MethodGet, "/v1/jobs/absent/stream"},
	} {
		req, _ := http.NewRequest(probe.method, ts.URL+probe.path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var eb ErrorBody
		err = json.NewDecoder(resp.Body).Decode(&eb)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound || err != nil || eb.Reason != ReasonJobNotFound {
			t.Fatalf("%s %s: status %d reason %q, want 404 %q", probe.method, probe.path, resp.StatusCode, eb.Reason, ReasonJobNotFound)
		}
	}
}

// Accept: text/event-stream switches the stream to SSE framing.
func TestJobStreamSSE(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	snap := createJob(t, ts.URL, `{"analyze":{"topology":{"kind":"mesh","n":6},"trees":["htree"],"montecarlo_trials":8},"chunk_trials":4}`)
	// Wait for completion first so the SSE read is bounded.
	readStream(t, ts.URL+"/v1/jobs/"+snap.ID+"/stream")

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/jobs/"+snap.ID+"/stream", nil)
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE Content-Type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	lines := 0
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if !strings.HasPrefix(line, "data: ") {
			t.Fatalf("SSE line without data: framing: %q", line)
		}
		var ev streamEvent
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("bad SSE payload %q: %v", line, err)
		}
		lines++
	}
	if lines == 0 {
		t.Fatal("SSE stream delivered no events")
	}
}

// Malformed job bodies answer 400 with reason bad_request.
func TestJobBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, body := range []string{
		`{`,
		`{}`,
		`{"analyze":{"topology":{"kind":"mesh","n":4}},"simulate":{"topology":{"kind":"ring","n":4},"scheme":"clock"}}`,
		`{"kind":"simulate","analyze":{"topology":{"kind":"mesh","n":4}}}`,
	} {
		resp, b := postJSON(t, ts.URL+"/v1/jobs", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %q: status %d, want 400: %s", body, resp.StatusCode, b)
		}
		var eb ErrorBody
		if err := json.Unmarshal(b, &eb); err != nil || eb.Reason != ReasonBadRequest {
			t.Fatalf("body %q: error body %s, want reason %q", body, b, ReasonBadRequest)
		}
	}
}

// GET /v1/jobs lists tracked jobs, newest first.
func TestJobList(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	a := createJob(t, ts.URL, `{"id":"a","analyze":{"topology":{"kind":"mesh","n":6},"trees":["htree"],"montecarlo_trials":2}}`)
	b := createJob(t, ts.URL, `{"id":"b","analyze":{"topology":{"kind":"mesh","n":7},"trees":["htree"],"montecarlo_trials":2}}`)
	var doc struct {
		Jobs []jobSnapshot `json:"jobs"`
	}
	getJSON(t, ts.URL+"/v1/jobs", &doc)
	if len(doc.Jobs) != 2 || doc.Jobs[0].ID != b.ID || doc.Jobs[1].ID != a.ID {
		t.Fatalf("job list %+v, want [b a]", doc.Jobs)
	}
}

// DisableJobs removes the /v1/jobs routes entirely.
func TestJobsDisabled(t *testing.T) {
	_, ts := newTestServer(t, Config{DisableJobs: true})
	resp, _ := postJSON(t, ts.URL+"/v1/jobs", `{}`)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("jobs disabled: status %d, want 404", resp.StatusCode)
	}
}
