package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/service"
)

func encodeWorkload(t *testing.T, name string, seed int64) []byte {
	t.Helper()
	w, err := Generate(name, seed, 10)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestGenerateIsDeterministicPerSeed(t *testing.T) {
	for _, name := range workloadNames {
		a, b := encodeWorkload(t, name, 1), encodeWorkload(t, name, 1)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 1 gave two different request lists", name)
		}
		if c := encodeWorkload(t, name, 2); bytes.Equal(a, c) {
			t.Errorf("%s: seeds 1 and 2 gave the same request list", name)
		}
	}
}

// benchmarkSeconds is BENCHMARK.json's run_seconds, the run length the
// benchmark is measured at.
func benchmarkSeconds(t *testing.T) int {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		RunSeconds int `json:"run_seconds"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b.RunSeconds
}

func TestGenerateShapes(t *testing.T) {
	for _, name := range workloadNames {
		w, err := Generate(name, 1, benchmarkSeconds(t))
		if err != nil {
			t.Fatal(err)
		}
		// Enough timed samples for the tail percentile the workload
		// reports: p90 on closed loops, p99 per window on the open loop.
		want, per := 90.0, 1
		if w.Open {
			want, per = 99, openTailWindows
		}
		if timed := len(w.Sequence) - w.Warmup; tailPercentile(timed/per) < want {
			t.Errorf("%s: %d timed requests cannot support p%g", name, timed, want)
		}
		repeats := 0
		seen := map[int]bool{}
		for _, idx := range w.Sequence {
			if seen[idx] {
				repeats++
			}
			seen[idx] = true
		}
		switch {
		case !w.Open && repeats > 0:
			t.Errorf("%s: closed loop repeats %d requests", name, repeats)
		case w.Open:
			share := float64(repeats) / float64(len(w.Sequence))
			if share < repeatShare-0.05 || share > repeatShare+0.05 {
				t.Errorf("%s: repeat share %.3f, want about %.2f", name, share, repeatShare)
			}
		}
	}
	cold, _ := Generate("analyze-cold", 1, 1)
	if recipes := 2 * len(cold.Items); recipes <= kernelCacheEntries {
		t.Errorf("analyze-cold holds %d recipes, want more than the %d-entry kernel cache", recipes, kernelCacheEntries)
	}
}

func TestStreamIsStratified(t *testing.T) {
	g := newGenerator(7, 50)
	hit := make([]bool, 50)
	for i := 0; i < 50; i++ {
		v := g.kind.next()
		k := int(v * 50)
		if hit[k] {
			t.Fatalf("stratum %d drawn twice in one block", k)
		}
		hit[k] = true
	}
}

func TestMixedKindFollowsWeights(t *testing.T) {
	const n = 100000
	got := map[string]int{}
	for i := 0; i < n; i++ {
		kind, _ := mixedKind((float64(i) + 0.5) / n)
		got[kind]++
	}
	var total float64
	for _, m := range mixedWeights {
		total += m.weight
	}
	for _, m := range mixedWeights {
		want := m.weight / total * (1 - jobShare)
		if share := float64(got[m.kind]) / n; math.Abs(share-want) > 1e-4 {
			t.Errorf("%s: share %.4f, want %.4f", m.kind, share, want)
		}
	}
	if share := float64(got["job"]) / n; math.Abs(share-jobShare) > 1e-4 {
		t.Errorf("job: share %.4f, want %.4f", share, jobShare)
	}
}

// cellsByVariant sums the cells of a closed loop's requests per model
// and topology kind.
func cellsByVariant(t *testing.T, w *Workload) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for _, idx := range w.Sequence {
		var r struct {
			service.GraphInput
			Model json.RawMessage `json:"model"`
		}
		if err := json.Unmarshal(w.Items[idx].Body, &r); err != nil {
			t.Fatal(err)
		}
		tp := r.Topology
		out[tp.Kind+" "+string(r.Model)] += float64(tp.N + tp.Rows*tp.Cols)
	}
	return out
}

// TestSeedsCarryTheSameWork bounds how much the cells a variant's
// requests hold differ between seeds. The variants' request counts
// differ by one between seeds, about 1.5%, and that request's size is
// free, so the bound is 5%. Drawing sizes from a stream of their own,
// apart from the variant, let them differ by up to 16%.
func TestSeedsCarryTheSameWork(t *testing.T) {
	for _, name := range []string{"plan-cold", "analyze-cold"} {
		base := cellsByVariant(t, mustGenerate(t, name, 1))
		for seed := int64(2); seed <= 10; seed++ {
			got := cellsByVariant(t, mustGenerate(t, name, seed))
			for k, want := range base {
				if d := math.Abs(got[k]/want - 1); d > 0.05 {
					t.Errorf("%s seed %d: %s requests hold %.0f cells, seed 1's %.0f", name, seed, k, got[k], want)
				}
			}
		}
	}
}

func mustGenerate(t *testing.T, name string, seed int64) *Workload {
	t.Helper()
	w, err := Generate(name, seed, 5)
	if err != nil {
		t.Fatal(err)
	}
	return w
}
