package service

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestSimulateBatchEndpoint drives the batched form of /v1/simulate:
// N configs over one topology, answered in index order with per-config
// results, and — the point of the batch — one engine build amortized
// across every config that shares a recipe.
func TestSimulateBatchEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	req := `{"topology":{"kind":"mesh","n":4},"configs":[
		{"regime":"nominal"},
		{"regime":"random","trials":8,"seed":3,"params":{"eps":0.2}},
		{"regime":"random","trials":8,"seed":4,"params":{"eps":0.2}},
		{"regime":"adversarial","pair":[0,15]},
		{"mode":"hybrid","seed":9,"hybrid":{"element_size":3,"waves":8}},
		{"mode":"hybrid","seed":10,"hybrid":{"element_size":3,"waves":8}}
	]}`
	resp, body := postJSON(t, ts.URL+"/v1/simulate", req)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out SimulateBatchResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("decoding: %v", err)
	}
	if out.Configs != 6 || len(out.Results) != 6 {
		t.Fatalf("want 6 results, got configs=%d len=%d", out.Configs, len(out.Results))
	}
	for i, item := range out.Results {
		if item.Index != i {
			t.Fatalf("result %d carries index %d", i, item.Index)
		}
		if item.Error != "" || item.Result == nil {
			t.Fatalf("result %d failed: %q", i, item.Error)
		}
	}
	if n := out.Results[1].Result.CommSkew.N; n != 8 {
		t.Fatalf("config 1: want 8 skew samples, got %d", n)
	}
	if out.Results[4].Result.Hybrid == nil || out.Results[4].Result.Hybrid.CycleTime <= 0 {
		t.Fatalf("config 4: hybrid summary incomplete: %+v", out.Results[4].Result)
	}
	// One kernel (all four clock configs share tree/equalize/spacing)
	// and one hybrid system (both share element_size), however the
	// fan-out races; the other per-config lookups hit.
	if miss, hit := s.metrics.kernelMisses.Load(), s.metrics.kernelHits.Load(); miss != 1 || hit != 3 {
		t.Fatalf("want 1 kernel miss and 3 hits for one batch's clock configs, got %d and %d", miss, hit)
	}
	if miss, hit := s.metrics.simKernelMisses.Load(), s.metrics.simKernelHits.Load(); miss != 1 || hit != 1 {
		t.Fatalf("want 1 hybrid-system miss and 1 hit for one batch's hybrid configs, got %d and %d", miss, hit)
	}
}

// TestSimulateBatchMatchesSingleRequests pins the batch path to the
// single-config path: each batch item's result must be byte-identical
// to the same config posted alone.
func TestSimulateBatchMatchesSingleRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	batch := `{"topology":{"kind":"linear","n":12},"configs":[
		{"regime":"random","trials":4,"seed":7,"params":{"eps":0.1,"min_separation":0.5}},
		{"mode":"hybrid","seed":5,"hybrid":{"element_size":4,"waves":8}}
	]}`
	resp, body := postJSON(t, ts.URL+"/v1/simulate", batch)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out SimulateBatchResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("decoding: %v", err)
	}
	singles := []string{
		`{"topology":{"kind":"linear","n":12},"regime":"random","trials":4,"seed":7,"params":{"eps":0.1,"min_separation":0.5}}`,
		`{"topology":{"kind":"linear","n":12},"mode":"hybrid","seed":5,"hybrid":{"element_size":4,"waves":8}}`,
	}
	for i, single := range singles {
		_, ts2 := newTestServer(t, Config{})
		sresp, sbody := postJSON(t, ts2.URL+"/v1/simulate", single)
		if sresp.StatusCode != 200 {
			t.Fatalf("single %d: status %d: %s", i, sresp.StatusCode, sbody)
		}
		got, err := json.Marshal(out.Results[i].Result)
		if err != nil {
			t.Fatal(err)
		}
		var want SimulateResponse
		if err := json.Unmarshal(sbody, &want); err != nil {
			t.Fatal(err)
		}
		wantb, err := json.Marshal(&want)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, wantb) {
			t.Fatalf("batch item %d diverges from single request:\n%s\n%s", i, got, wantb)
		}
	}
}

// TestSimulateBatchInlineErrors: a bad config fails its own slot, not
// its siblings — the batch collects per-item errors like analyze does.
func TestSimulateBatchInlineErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := `{"topology":{"kind":"mesh","n":4},"configs":[
		{"regime":"sideways"},
		{"regime":"nominal"},
		{"regime":"adversarial","pair":[0,999]}
	]}`
	resp, body := postJSON(t, ts.URL+"/v1/simulate", req)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out SimulateBatchResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("decoding: %v", err)
	}
	if out.Results[0].Error == "" || !strings.Contains(out.Results[0].Error, "regime") {
		t.Fatalf("config 0: want regime error, got %q", out.Results[0].Error)
	}
	if out.Results[1].Error != "" || out.Results[1].Result == nil {
		t.Fatalf("config 1 should succeed beside failing siblings: %q", out.Results[1].Error)
	}
	if out.Results[2].Error == "" {
		t.Fatalf("config 2: want pair-range error, got success")
	}
}

// TestSimulateBatchRejectsPerConfigTopology: every config runs over the
// request's topology; a config smuggling its own is refused in its slot.
func TestSimulateBatchRejectsPerConfigTopology(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := `{"topology":{"kind":"mesh","n":4},"configs":[
		{"regime":"nominal","topology":{"kind":"ring","n":8}}
	]}`
	resp, body := postJSON(t, ts.URL+"/v1/simulate", req)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out SimulateBatchResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("decoding: %v", err)
	}
	if !strings.Contains(out.Results[0].Error, "request's topology") {
		t.Fatalf("want mixed-topology rejection, got %q", out.Results[0].Error)
	}
}

// TestSimulateBatchSizeBound: batches beyond max_batch_configs are
// refused whole with 400, before any config runs.
func TestSimulateBatchSizeBound(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBatchConfigs: 2})
	req := `{"topology":{"kind":"mesh","n":4},"configs":[
		{"regime":"nominal"},{"regime":"nominal"},{"regime":"nominal"}
	]}`
	resp, body := postJSON(t, ts.URL+"/v1/simulate", req)
	if resp.StatusCode != 400 {
		t.Fatalf("want 400 for oversized batch, got %d: %s", resp.StatusCode, body)
	}
	if !bytes.Contains(body, []byte("batch")) {
		t.Fatalf("error should name the batch bound: %s", body)
	}
}

// TestSimulateBatchDeterministic: same batch on a fresh server is
// byte-identical — batch responses cache and replay like every other
// endpoint.
func TestSimulateBatchDeterministic(t *testing.T) {
	req := `{"topology":{"kind":"hex","n":9},"configs":[
		{"regime":"random","trials":6,"seed":2,"params":{"eps":0.3}},
		{"regime":"jittered","trials":6,"seed":2,"params":{"eps":0.3},
		 "faults":{"JitterProb":0.2,"MaxJitter":0.4}},
		{"mode":"hybrid","seed":2,"hybrid":{"element_size":2,"waves":6}}
	]}`
	_, ts := newTestServer(t, Config{})
	_, body := postJSON(t, ts.URL+"/v1/simulate", req)
	_, ts2 := newTestServer(t, Config{})
	_, body2 := postJSON(t, ts2.URL+"/v1/simulate", req)
	if !bytes.Equal(body, body2) {
		t.Fatalf("same batch produced different responses:\n%s\n%s", body, body2)
	}
}
