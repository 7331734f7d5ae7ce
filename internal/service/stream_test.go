package service

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/skew"
)

// TestStreamedFallbackMatchesKernel pins the fallback's exactness
// contract over the wire: for every request shape, the answer a
// tiny-limit server produces via the streamed path carries the same
// exact fields — max skew, worst pair, distances, pair count,
// guaranteed minimum — as a big-limit server's kernel answer, plus the
// machine-readable streamed marker.
func TestStreamedFallbackMatchesKernel(t *testing.T) {
	_, small := newTestServer(t, Config{KernelLimits: skew.Limits{MaxPairs: 4}})
	_, big := newTestServer(t, Config{KernelLimits: skew.Limits{MaxPairs: 1 << 20}})

	cases := []struct {
		name string
		body string
	}{
		{"mesh htree linear", `{"topology":{"kind":"mesh","n":8}}`},
		{"mesh htree equalized", `{"topology":{"kind":"mesh","n":8},"equalize":true}`},
		{"mesh htree summation", `{"topology":{"kind":"mesh","n":7},"model":{"kind":"summation","eps":0.25}}`},
		{"rect mesh spine", `{"topology":{"kind":"mesh","rows":5,"cols":9},"trees":["spine"]}`},
		{"torus htree", `{"topology":{"kind":"torus","rows":4,"cols":6}}`},
		{"mesh htree buffered", `{"topology":{"kind":"mesh","n":8},"buffer_spacing":2}`},
		{"mesh two trees", `{"topology":{"kind":"mesh","n":8},"trees":["htree","serpentine"]}`},
		{"mesh sampled mc", `{"topology":{"kind":"mesh","n":8},"montecarlo_trials":16,"seed":7}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, rawSmall := postJSON(t, small.URL+"/v1/analyze", tc.body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("small-limit server: status %d, want 200: %s", resp.StatusCode, rawSmall)
			}
			resp, rawBig := postJSON(t, big.URL+"/v1/analyze", tc.body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("big-limit server: status %d, want 200: %s", resp.StatusCode, rawBig)
			}
			var got, want AnalyzeResponse
			if err := json.Unmarshal(rawSmall, &got); err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(rawBig, &want); err != nil {
				t.Fatal(err)
			}
			if len(got.Results) != len(want.Results) {
				t.Fatalf("result counts differ: %d vs %d", len(got.Results), len(want.Results))
			}
			for i, g := range got.Results {
				w := want.Results[i]
				if w.Error != "" {
					continue // builder mismatch reports inline on both
				}
				if !g.Streamed {
					t.Fatalf("tree %s: small-limit answer not marked streamed: %s", g.Tree, rawSmall)
				}
				if g.MaxSkew != w.MaxSkew || g.WorstPair != w.WorstPair ||
					g.MaxD != w.MaxD || g.MaxS != w.MaxS || g.Pairs != w.Pairs ||
					g.GuaranteedMinSkew != w.GuaranteedMinSkew {
					t.Errorf("tree %s: streamed answer diverges from kernel:\n  streamed %+v\n  kernel   %+v", g.Tree, g, w)
				}
				if g.StreamShards < 1 {
					t.Errorf("tree %s: streamed answer reports %d shards", g.Tree, g.StreamShards)
				}
				if g.SkewP99 < g.SkewP50 || g.SkewP99 > g.MaxSkew*(1+g.QuantileRelError)+1e-12 {
					t.Errorf("tree %s: implausible quantiles p50=%g p99=%g max=%g", g.Tree, g.SkewP50, g.SkewP99, g.MaxSkew)
				}
				if strings.Contains(tc.body, "montecarlo_trials") {
					if g.Sampled == nil {
						t.Fatalf("tree %s: montecarlo_trials set but no sampled estimate", g.Tree)
					}
					// Small graphs fit under the sample cap, so the sampled
					// estimate short-circuits to the exhaustive exact value.
					if !g.Sampled.Exhaustive || g.Sampled.Max != g.MaxSkew || g.Sampled.CI95 != 0 {
						t.Errorf("tree %s: exhaustive sampled estimate %+v, want Max=%g CI95=0", g.Tree, g.Sampled, g.MaxSkew)
					}
					if w.MonteCarloMaxSkew == 0 {
						t.Errorf("tree %s: kernel reference lost its Monte-Carlo result", g.Tree)
					}
				}
			}
		})
	}
}

// TestStreamedFallbackMetrics: the fallback shows up in both metric
// expositions — streamed counters in the JSON document, counters and
// the kernel_bytes_in_use gauge in the Prometheus text.
func TestStreamedFallbackMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{KernelLimits: skew.Limits{MaxPairs: 4}})
	resp, body := postJSON(t, ts.URL+"/v1/analyze", `{"topology":{"kind":"mesh","n":8}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var doc struct {
		StreamedFallbacks int64 `json:"streamed_fallback_total"`
		StreamedShards    int64 `json:"streamed_shards_total"`
		KernelBytes       int64 `json:"kernel_bytes_in_use"`
	}
	getJSON(t, ts.URL+"/metrics", &doc)
	if doc.StreamedFallbacks < 1 {
		t.Errorf("streamed_fallback_total = %d, want >= 1", doc.StreamedFallbacks)
	}
	if doc.StreamedShards < 1 {
		t.Errorf("streamed_shards_total = %d, want >= 1", doc.StreamedShards)
	}
	if doc.KernelBytes <= 0 {
		t.Errorf("kernel_bytes_in_use = %d, want > 0 after a streamed-tier kernel build", doc.KernelBytes)
	}
	prom, err := http.Get(ts.URL + "/metrics?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	defer prom.Body.Close()
	b, err := io.ReadAll(prom.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(b)
	for _, name := range []string{"streamed_fallback_total", "streamed_shards_total", "kernel_bytes_in_use"} {
		if !strings.Contains(text, name) {
			t.Errorf("prom exposition missing %s", name)
		}
	}
}

// TestStreamedCertifiedBound: the streamed path retains the same flat
// tree the kernel path builds, so the certified lower bound it reports
// equals the kernel path's.
func TestStreamedCertifiedBound(t *testing.T) {
	const body = `{"topology":{"kind":"mesh","n":8},"model":{"kind":"summation","eps":0.25},"certified_lower_bound":true}`
	var bounds []float64
	for _, lim := range []skew.Limits{{MaxPairs: 4}, {}} {
		_, ts := newTestServer(t, Config{KernelLimits: lim})
		resp, raw := postJSON(t, ts.URL+"/v1/analyze", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, raw)
		}
		var doc AnalyzeResponse
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatal(err)
		}
		r := doc.Results[0]
		if r.Streamed != (lim.MaxPairs != 0) || r.Error != "" || r.CertifiedLowerBound <= 0 {
			t.Fatalf("limits %+v: got %+v", lim, r)
		}
		bounds = append(bounds, r.CertifiedLowerBound)
	}
	if bounds[0] != bounds[1] {
		t.Errorf("streamed certified bound %v, kernel path %v", bounds[0], bounds[1])
	}
}

// TestStreamedJobPartials: an analyze job that falls back to the
// streamed path publishes shard-level partials (pairs scanned, sketch
// quantiles so far) and finishes with the streamed result document.
func TestStreamedJobPartials(t *testing.T) {
	_, ts := newTestServer(t, Config{KernelLimits: skew.Limits{MaxPairs: 4}})
	resp, body := postJSON(t, ts.URL+"/v1/jobs",
		`{"analyze":{"topology":{"kind":"mesh","n":10}}}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job create: status %d: %s", resp.StatusCode, body)
	}
	var snap struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}
	stream, err := http.Get(ts.URL + "/v1/jobs/" + snap.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	var sawPartial bool
	var result json.RawMessage
	dec := json.NewDecoder(stream.Body)
	for {
		var ev struct {
			State   string          `json:"state"`
			Partial json.RawMessage `json:"partial,omitempty"`
			Result  json.RawMessage `json:"result,omitempty"`
			Error   string          `json:"error,omitempty"`
		}
		if err := dec.Decode(&ev); err != nil {
			break
		}
		if len(ev.Partial) > 0 {
			var p StreamedPartial
			if err := json.Unmarshal(ev.Partial, &p); err != nil {
				t.Fatalf("partial not a StreamedPartial: %v: %s", err, ev.Partial)
			}
			if !p.Streamed || p.PairsTotal <= 0 || p.PairsDone > p.PairsTotal {
				t.Fatalf("implausible streamed partial %+v", p)
			}
			sawPartial = true
		}
		if ev.Error != "" {
			t.Fatalf("job failed: %s", ev.Error)
		}
		if len(ev.Result) > 0 {
			result = ev.Result
			break
		}
	}
	if !sawPartial {
		t.Error("job stream carried no streamed partials")
	}
	var doc AnalyzeResponse
	if err := json.Unmarshal(result, &doc); err != nil {
		t.Fatalf("job result: %v: %s", err, result)
	}
	if len(doc.Results) != 1 || !doc.Results[0].Streamed || doc.Results[0].MaxSkew <= 0 {
		t.Errorf("job result not a streamed analysis: %s", result)
	}
}
