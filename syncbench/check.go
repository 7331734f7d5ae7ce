package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strings"

	"repro/internal/core"
	"repro/internal/service"
)

// Answer keys: the fields of each response that must match the replay
// bit for bit. Floats are compared by their IEEE-754 bits.

func bits(f float64) string { return fmt.Sprintf("%016x", math.Float64bits(f)) }

func planKey(s core.PlanSummary) string {
	return fmt.Sprintf("scheme=%s sigma=%s period=%s certified=%s",
		s.Scheme, bits(s.Sigma), bits(s.Period), bits(s.CertifiedSkewLowerBound))
}

func analyzeKey(r *service.AnalyzeResponse) string {
	var b strings.Builder
	for _, t := range r.Results {
		fmt.Fprintf(&b, "[tree=%s err=%q max_skew=%s worst_pair=%v pairs=%d guaranteed_min_skew=%s montecarlo_max_skew=%s]",
			t.Tree, t.Error, bits(t.MaxSkew), t.WorstPair, t.Pairs, bits(t.GuaranteedMinSkew), bits(t.MonteCarloMaxSkew))
	}
	return b.String()
}

func simulateKey(r *service.SimulateResponse) string {
	var b strings.Builder
	fmt.Fprintf(&b, "mode=%s tree=%s regime=%s trials=%d", r.Mode, r.Tree, r.Regime, r.Trials)
	if s := r.CommSkew; s != nil {
		fmt.Fprintf(&b, " comm_skew=%d/%s/%s/%s/%s/%s/%s/%s", s.N, bits(s.Mean), bits(s.Std), bits(s.Min),
			bits(s.P50), bits(s.P90), bits(s.P99), bits(s.Max))
	}
	fmt.Fprintf(&b, " drift=%s min_period=%s", bits(r.MaxEventDrift), bits(r.MinPipelinedPeriod))
	if h := r.Hybrid; h != nil {
		fmt.Fprintf(&b, " hybrid=%d/%d/%d/%s/%s/%s", h.Elements, h.MaxElementCells, h.Waves,
			bits(h.WaveCost), bits(h.CycleTime), bits(h.LastWaveSpread))
	}
	return b.String()
}

func batchKey(r *service.SimulateBatchResponse) string {
	var b strings.Builder
	for _, it := range r.Results {
		fmt.Fprintf(&b, "[%d err=%q", it.Index, it.Error)
		if it.Result != nil {
			b.WriteString(" " + simulateKey(it.Result))
		}
		b.WriteString("]")
	}
	return b.String()
}

func svgKey(body []byte) string {
	sum := sha256.Sum256(body)
	return "svg=" + hex.EncodeToString(sum[:])
}

// isBatch reports whether a simulate body uses the batch form.
func isBatch(body []byte) bool {
	var probe struct {
		Configs []json.RawMessage `json:"configs"`
	}
	return json.Unmarshal(body, &probe) == nil && len(probe.Configs) > 0
}

// servedKey decodes one answer the server gave for it into its answer
// key. Any transport error, non-200, undecodable body, failed job, or
// inline per-tree or per-config error is a failure.
func servedKey(it Item, o *Outcome) (string, error) {
	if o.Err != nil {
		return "", o.Err
	}
	if o.Status != http.StatusOK {
		return "", fmt.Errorf("status %d: %s", o.Status, strings.TrimSpace(string(o.Body)))
	}
	switch it.Kind {
	case "plan":
		var s core.PlanSummary
		if err := json.Unmarshal(o.Body, &s); err != nil {
			return "", fmt.Errorf("decoding plan: %w", err)
		}
		return planKey(s), nil
	case "analyze":
		return decodeAnalyze(o.Body)
	case "job":
		if o.JobFinal == nil || o.JobFinal.State != "done" {
			return "", fmt.Errorf("job did not finish done: %+v", o.JobFinal)
		}
		return decodeAnalyze(o.JobFinal.Result)
	case "simulate":
		if isBatch(it.Body) {
			var r service.SimulateBatchResponse
			if err := json.Unmarshal(o.Body, &r); err != nil {
				return "", fmt.Errorf("decoding batch simulate: %w", err)
			}
			for _, x := range r.Results {
				if x.Error != "" {
					return "", fmt.Errorf("batch config %d: %s", x.Index, x.Error)
				}
			}
			return batchKey(&r), nil
		}
		var r service.SimulateResponse
		if err := json.Unmarshal(o.Body, &r); err != nil {
			return "", fmt.Errorf("decoding simulate: %w", err)
		}
		return simulateKey(&r), nil
	case "layout":
		if !strings.HasPrefix(strings.TrimSpace(string(o.Body)), "<") {
			return "", fmt.Errorf("layout body is not SVG")
		}
		return svgKey(o.Body), nil
	}
	return "", fmt.Errorf("unknown item kind %q", it.Kind)
}

func decodeAnalyze(body []byte) (string, error) {
	var r service.AnalyzeResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return "", fmt.Errorf("decoding analyze: %w", err)
	}
	for _, t := range r.Results {
		if t.Error != "" {
			return "", fmt.Errorf("tree %s: %s", t.Tree, t.Error)
		}
	}
	return analyzeKey(&r), nil
}
