package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/service"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE = regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
)

// object decodes raw as a JSON object holding exactly keys.
func object(t *testing.T, what string, raw json.RawMessage, keys ...string) map[string]json.RawMessage {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	var got []string
	for k := range m {
		got = append(got, k)
	}
	sort.Strings(got)
	want := append([]string(nil), keys...)
	sort.Strings(want)
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("%s: keys %v, want exactly %v", what, got, want)
	}
	return m
}

func decode[T any](t *testing.T, what string, raw json.RawMessage) T {
	t.Helper()
	var v T
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&v); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	return v
}

func TestBenchmarkJSONSchema(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Fatalf("BENCHMARK.json is %d bytes, limit 64 KiB", len(raw))
	}
	top := object(t, "BENCHMARK.json", raw, "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer")
	names := map[string]bool{}
	useName := func(n string) {
		if !nameRE.MatchString(n) || names[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		names[n] = true
	}

	command := decode[[]string](t, "command", top["command"])
	if len(command) < 1 || len(command) > 32 {
		t.Errorf("command has %d strings, want 1..32", len(command))
	}
	for _, c := range command {
		if len(c) > 200 || strings.HasPrefix(c, "/") || strings.Contains(c, "..") {
			t.Errorf("command string %q is too long or leaves the repository", c)
		}
	}
	paths := decode[[]string](t, "paths", top["paths"])
	if len(paths) < 1 || len(paths) > 16 {
		t.Errorf("paths has %d entries, want 1..16", len(paths))
	}
	for _, p := range paths {
		if !pathRE.MatchString(p) || strings.HasPrefix(p, "/") || strings.Contains(p, "..") {
			t.Errorf("path %q is malformed", p)
		}
		if st, err := os.Stat(filepath.Join("..", p)); err != nil || !st.IsDir() {
			t.Errorf("path %q is not a directory of the repository", p)
		}
	}
	if secs := decode[int](t, "run_seconds", top["run_seconds"]); secs < 1 || secs > 60 {
		t.Errorf("run_seconds %d, want 1..60", secs)
	}

	var workloads []json.RawMessage
	workloads = decode[[]json.RawMessage](t, "workloads", top["workloads"])
	if len(workloads) < 2 || len(workloads) > 8 {
		t.Errorf("%d workloads, want 2..8", len(workloads))
	}
	var wlNames []string
	for i, w := range workloads {
		m := object(t, fmt.Sprintf("workload %d", i), w, "name", "why")
		name, why := decode[string](t, "name", m["name"]), decode[string](t, "why", m["why"])
		useName(name)
		if why == "" || len(why) > 200 || strings.ContainsAny(why, "\r\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", name)
		}
		wlNames = append(wlNames, name)
	}
	if strings.Join(wlNames, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("workloads %v, want %v", wlNames, workloadNames)
	}

	checkMetrics := func(key string, defs []MetricDef, bounded bool) {
		list := decode[[]json.RawMessage](t, key, top[key])
		if len(list) != len(defs) {
			t.Fatalf("%s lists %d metrics, the benchmark reports %d", key, len(list), len(defs))
		}
		for i, raw := range list {
			keys := []string{"name", "unit", "better"}
			if bounded {
				keys = append(keys, "bound")
			}
			m := object(t, fmt.Sprintf("%s[%d]", key, i), raw, keys...)
			name, unit, better := decode[string](t, "name", m["name"]), decode[string](t, "unit", m["unit"]), decode[string](t, "better", m["better"])
			useName(name)
			if !unitRE.MatchString(unit) {
				t.Errorf("%s: unit %q is malformed", name, unit)
			}
			if better != "lower" && better != "higher" {
				t.Errorf("%s: better %q, want lower or higher", name, better)
			}
			if d := defs[i]; d.Name != name || d.Unit != unit || d.Better != better {
				t.Errorf("%s[%d] = %s %s %s, the benchmark reports %+v", key, i, name, unit, better, d)
			}
			if bounded {
				if b := decode[float64](t, "bound", m["bound"]); b <= 0 || b > 0.25 {
					t.Errorf("%s: bound %g, want (0, 0.25]", name, b)
				}
			}
		}
	}
	checkMetrics("end_to_end", endToEnd, true)
	checkMetrics("per_layer", perLayer, false)
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("too many metrics")
	}
	if endToEnd[0] != (MetricDef{"setup_s", "s", "lower"}) {
		t.Errorf("setup_s must be an end-to-end metric in seconds, lower is better")
	}
}

// checkResultLine validates one result line strictly: exactly the four
// keys, whole counts, and exactly defs' metrics with value and unit.
func checkResultLine(t *testing.T, line []byte, defs []MetricDef) {
	t.Helper()
	top := object(t, "result", line, "correct", "attempted", "failed", "metrics")
	decode[bool](t, "correct", top["correct"])
	if a := decode[int](t, "attempted", top["attempted"]); a < 1 {
		t.Errorf("attempted %d, want at least 1", a)
	}
	if f := decode[int](t, "failed", top["failed"]); f < 0 {
		t.Errorf("failed %d", f)
	}
	var names []string
	for _, d := range defs {
		names = append(names, d.Name)
	}
	metrics := object(t, "metrics", top["metrics"], names...)
	for _, d := range defs {
		m := object(t, d.Name, metrics[d.Name], "value", "unit")
		decode[float64](t, d.Name+".value", m["value"])
		if u := decode[string](t, d.Name+".unit", m["unit"]); u != d.Unit {
			t.Errorf("%s: unit %q, want %q", d.Name, u, d.Unit)
		}
	}
}

// TestResultLineSchema runs the real reduction code on synthetic closed-
// loop outcomes and on a real replay of three small requests, and checks
// both result lines.
func TestResultLineSchema(t *testing.T) {
	w := &Workload{Name: "schema", Warmup: 2}
	w.Items = []Item{
		planItem(&service.PlanRequest{GraphInput: meshInput(8), Model: "summation", M: 1, Eps: 0.1, Delta: 2, BufferSpacing: 1}),
		analyzeItem(&service.AnalyzeRequest{GraphInput: meshInput(8), Trees: []string{"htree", "spine"},
			Model: service.ModelSpec{Kind: "linear", M: 1, Eps: 0.1}, MonteCarloTrials: 4, Seed: 3}),
		simulateItem(&service.SimulateRequest{GraphInput: meshInput(6), Mode: "clock", Tree: "htree",
			Regime: "random", Trials: 3, Seed: 2, Params: service.ClockParamsSpec{M: 1, Eps: 0.1}}),
	}
	var outs []Outcome
	for i := 0; i < 2+minClosedTimed; i++ {
		w.Sequence = append(w.Sequence, i%3)
		outs = append(outs, Outcome{Item: i % 3, Timed: i >= 2, Latency: time.Duration(1+i%17) * time.Millisecond, Cache: "miss"})
	}
	e2e, late, err := endToEndMetrics(w, outs, time.Second, []float64{0.01, 0.02, 0.03}, 300*time.Millisecond, 50<<20)
	if err != nil {
		t.Fatal(err)
	}
	rp := newReplayer(2, kernelCacheEntries)
	reps, err := rp.Run(context.Background(), w, distinctItems(w))
	if err != nil {
		t.Fatal(err)
	}
	layers, _, err := layerMetrics(rp, reps, outs, serverCounters{}, serverCounters{Requests: 300, Misses: 300}, late)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []struct {
		defs []MetricDef
		all  map[string]Value
	}{{endToEnd, e2e}, {perLayer, layers}} {
		metrics, err := strip(mode.defs, mode.all)
		if err != nil {
			t.Fatal(err)
		}
		line, err := json.Marshal(&Result{Correct: true, Attempted: len(outs), Metrics: metrics})
		if err != nil {
			t.Fatal(err)
		}
		checkResultLine(t, line, mode.defs)
	}
	if v := layers["skew.pairs"].Value; v <= 0 {
		t.Errorf("replay built no kernel: skew.pairs = %g", v)
	}
}
