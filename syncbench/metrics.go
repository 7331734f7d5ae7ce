package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"
)

// MetricDef names one reported metric.
type MetricDef struct {
	Name   string
	Unit   string
	Better string
}

// endToEnd are the client-visible metrics the result line carries,
// measured with syncd's own tracing untouched and no benchmark spans;
// every run reports all of them. The report line before it adds the
// tail percentiles (latency_p90_ms everywhere, latency_p99_ms on the
// open loop): on a shared 2-vCPU host their run-to-run spread exceeds
// the largest regression bound a result metric may carry.
var endToEnd = []MetricDef{
	{"setup_s", "s", "lower"},
	{"throughput_rps", "1/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"cpu_ms_per_req", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are the traced replay's metrics. Times are milliseconds per
// distinct replayed request, summed over the layer's spans (core.self_ms
// and replay.unattributed_ms are self times); kernel sizes and pairs are
// means per kernel built; ratios come from syncd's /metrics deltas over
// the timed phase. A layer a workload never reaches reports 0.
var perLayer = []MetricDef{
	{"service.decode_ms", "ms", "lower"},
	{"service.encode_ms", "ms", "lower"},
	{"service.result_hit_ratio", "ratio", "higher"},
	{"service.kernel_hit_ratio", "ratio", "higher"},
	{"service.coalesced_share", "ratio", "higher"},
	{"service.overhead_ms", "ms", "lower"},
	{"comm.build_ms", "ms", "lower"},
	{"comm.build_mb", "MB", "lower"},
	{"comm.encode_ms", "ms", "lower"},
	{"clocktree.build_ms", "ms", "lower"},
	{"clocktree.build_mb", "MB", "lower"},
	{"skew.kernel_build_ms", "ms", "lower"},
	{"skew.kernel_footprint_mb", "MB", "lower"},
	{"skew.kernel_retained_mb", "MB", "lower"},
	{"skew.scan_ms", "ms", "lower"},
	{"skew.montecarlo_ms", "ms", "lower"},
	{"skew.pairs", "count", "lower"},
	{"core.plan_ms", "ms", "lower"},
	{"core.certify_ms", "ms", "lower"},
	{"core.hybrid_ms", "ms", "lower"},
	{"core.layout_ms", "ms", "lower"},
	{"core.analyze_ms", "ms", "lower"},
	{"core.self_ms", "ms", "lower"},
	{"hybrid.build_ms", "ms", "lower"},
	{"hybrid.run_ms", "ms", "lower"},
	{"clocksim.kernel_build_ms", "ms", "lower"},
	{"clocksim.run_ms", "ms", "lower"},
	{"viz.render_ms", "ms", "lower"},
	{"jobs.queue_ms", "ms", "lower"},
	{"jobs.run_ms", "ms", "lower"},
	{"load.late_ms_p99", "ms", "lower"},
	{"replay.unattributed_ms", "ms", "lower"},
}

// layerOfSpan maps a span name to the per-layer metric (without unit
// suffix) its inclusive time feeds. The benchmark's own spans sit
// directly under each replay.* root; core.* and skew.analyze are the
// planner's own spans nested under core.newplan.
var layerOfSpan = map[string]string{
	"service.decode":      "service.decode",
	"service.encode":      "service.encode",
	"comm.build":          "comm.build",
	"comm.encode":         "comm.encode",
	"clocktree.build":     "clocktree.build",
	"skew.kernel_build":   "skew.kernel_build",
	"skew.scan":           "skew.scan",
	"skew.mc":             "skew.montecarlo",
	"core.newplan":        "core.plan",
	"core.certify":        "core.certify",
	"core.hybrid":         "core.hybrid",
	"core.layout":         "core.layout",
	"skew.analyze":        "core.analyze",
	"hybrid.new":          "hybrid.build",
	"hybrid.simulate":     "hybrid.run",
	"clocksim.new_kernel": "clocksim.kernel_build",
	"clocksim.trials":     "clocksim.run",
	"viz.render":          "viz.render",
}

// Value is one reported metric.
type Value struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
	Note    string  `json:"note,omitempty"`
}

// Result is the last line the benchmark prints.
type Result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]Value `json:"metrics"`
}

// strip drops sample counts and notes: the result line carries exactly
// value and unit per metric.
func strip(defs []MetricDef, all map[string]Value) (map[string]Value, error) {
	out := make(map[string]Value, len(defs))
	for _, d := range defs {
		v, ok := all[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		out[d.Name] = Value{Value: v.Value, Unit: d.Unit}
	}
	return out, nil
}

// serverCounters is the subset of syncd's /metrics document the service
// ratios are computed from.
type serverCounters struct {
	Requests     float64 `json:"requests"`
	Hits         float64 `json:"cache_hits"`
	Misses       float64 `json:"cache_misses"`
	Coalesced    float64 `json:"coalesced"`
	KernelHits   float64 `json:"kernel_cache_hits"`
	KernelMisses float64 `json:"kernel_cache_misses"`
}

func scrape(ctx context.Context, base string) (serverCounters, error) {
	var c serverCounters
	ctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", base+"/metrics", nil)
	if err != nil {
		return c, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return c, fmt.Errorf("scraping /metrics: %w", err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&c); err != nil {
		return c, fmt.Errorf("decoding /metrics: %w", err)
	}
	return c, nil
}

func ratio(num, den float64) float64 {
	if den <= 0 {
		return 0
	}
	return num / den
}

// markdownBreakdown renders the replay's self time and allocated bytes
// per span name, plus the unattributed remainder, as a markdown table.
func markdownBreakdown(workload string, rows []breakdownRow, requests int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "| %s layer (span) | self ms/request | MB/request | share |\n|---|---:|---:|---:|\n", workload)
	var total float64
	for _, r := range rows {
		total += r.ms
	}
	for _, r := range rows {
		mb := "—"
		if r.hasBytes {
			mb = fmt.Sprintf("%.3f", r.mb/float64(requests))
		}
		fmt.Fprintf(&b, "| %s | %.3f | %s | %.1f%% |\n", r.name, r.ms/float64(requests), mb, 100*ratio(r.ms, total))
	}
	fmt.Fprintf(&b, "| total | %.3f | | 100%% |\n", total/float64(requests))
	return b.String()
}

type breakdownRow struct {
	name     string
	ms, mb   float64
	hasBytes bool
}

// kernelMemory compares, over the kernels whose retained heap was
// measured, what Kernel.FootprintBytes reports with what a cached
// kernel actually keeps alive.
func kernelMemory(ks []kernelStat) string {
	var n int
	var foot, kept float64
	for _, k := range ks {
		if k.retained >= 0 {
			n++
			foot += float64(k.footprint) / 1e6
			kept += float64(k.retained) / 1e6
		}
	}
	if n == 0 {
		return "kernel memory: no kernel built"
	}
	return fmt.Sprintf("kernel memory over %d sampled kernels: FootprintBytes %.3f MB, retained %.3f MB per kernel (%.1fx)",
		n, foot/float64(n), kept/float64(n), ratio(kept, foot))
}
