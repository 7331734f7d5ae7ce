package service

import (
	"encoding/json"
	"net/http"
	"testing"

	"repro/internal/skew"
)

// TestKernelLimitsSurfaceAs413 pins the oversize-kernel contract: a
// simulation whose (graph, tree) kernel would exceed the configured
// limits fails with 413 and the machine-readable reason
// "array_too_large", instead of 500 or an attempted allocation.
// (Oversize analyze requests answer 200 streamed — see stream_test.go.)
func TestKernelLimitsSurfaceAs413(t *testing.T) {
	_, ts := newTestServer(t, Config{KernelLimits: skew.Limits{MaxPairs: 4}})
	for _, path := range []string{"/v1/simulate"} {
		t.Run(path, func(t *testing.T) {
			resp, body := postJSON(t, ts.URL+path, `{"topology":{"kind":"mesh","n":8}}`)
			if resp.StatusCode != http.StatusRequestEntityTooLarge {
				t.Fatalf("status %d, want 413: %s", resp.StatusCode, body)
			}
			var doc struct {
				Error  string `json:"error"`
				Reason string `json:"reason"`
			}
			if err := json.Unmarshal(body, &doc); err != nil {
				t.Fatalf("error body not JSON: %v: %s", err, body)
			}
			if doc.Reason != "array_too_large" {
				t.Errorf("reason = %q, want array_too_large (body %s)", doc.Reason, body)
			}
			if doc.Error == "" {
				t.Error("413 body missing error message")
			}
		})
	}
}

// TestKernelLimitsSmallArraysUnaffected: the same server must still
// serve arrays under the budget.
func TestKernelLimitsSmallArraysUnaffected(t *testing.T) {
	_, ts := newTestServer(t, Config{
		KernelLimits: skew.Limits{MaxPairs: 1 << 20},
	})
	resp, body := postJSON(t, ts.URL+"/v1/analyze", `{"topology":{"kind":"mesh","n":8}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200: %s", resp.StatusCode, body)
	}
}

// TestKernelLimits413IsNotCachedAsSuccess: a rejected request repeated
// verbatim must be rejected again (and not count as a cache hit of a
// successful compute).
func TestKernelLimits413Repeatable(t *testing.T) {
	_, ts := newTestServer(t, Config{KernelLimits: skew.Limits{MaxPairs: 4}})
	for i := 0; i < 2; i++ {
		resp, body := postJSON(t, ts.URL+"/v1/simulate", `{"topology":{"kind":"mesh","n":8}}`)
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("attempt %d: status %d, want 413: %s", i, resp.StatusCode, body)
		}
	}
}
