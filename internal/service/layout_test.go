package service

import (
	"hash/fnv"
	"testing"
)

// TestLayoutSVGPinned pins /v1/layout.svg bytes (FNV-64a) to the output
// recorded when clock wires were stored rather than regenerated from
// node positions: regeneration must draw exactly the same polylines.
func TestLayoutSVGPinned(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, tc := range []struct {
		query string
		want  uint64
	}{
		{"kind=mesh&n=8&tree=htree", 0x7d51f8ba9cf1f1e6},
		{"kind=mesh&n=8&tree=htree&spacing=0.75", 0x22c9c990a2eaee90},
	} {
		resp, body := getURL(t, ts.URL+"/v1/layout.svg?"+tc.query)
		if resp.StatusCode != 200 {
			t.Fatalf("%s: status %d: %s", tc.query, resp.StatusCode, body)
		}
		h := fnv.New64a()
		h.Write(body)
		if got := h.Sum64(); got != tc.want {
			t.Errorf("%s: SVG fingerprint %#x, want %#x", tc.query, got, tc.want)
		}
	}
}
