package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
)

// Every non-200 answer is a typed ErrorBody whose reason is machine-
// readable: clients branch on reason, not on message prose.
func TestErrorBodiesCarryReason(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name, method, path, body string
		status                   int
		reason                   string
	}{
		{"malformed analyze", http.MethodPost, "/v1/analyze", `{"topology":`, 400, ReasonBadRequest},
		{"analyze wrong method", http.MethodGet, "/v1/analyze", "", 405, ReasonMethodNotAllowed},
		{"plan wrong method", http.MethodGet, "/v1/plan", "", 405, ReasonMethodNotAllowed},
		{"simulate wrong method", http.MethodGet, "/v1/simulate", "", 405, ReasonMethodNotAllowed},
		{"jobs wrong method", http.MethodPut, "/v1/jobs", "", 405, ReasonMethodNotAllowed},
		{"job wrong method", http.MethodPut, "/v1/jobs/x", "", 405, ReasonMethodNotAllowed},
		{"stream wrong method", http.MethodPost, "/v1/jobs/x/stream", "", 405, ReasonMethodNotAllowed},
		{"job not found", http.MethodGet, "/v1/jobs/absent", "", 404, ReasonJobNotFound},
		{"empty job", http.MethodPost, "/v1/jobs", `{}`, 400, ReasonBadRequest},
		{"unknown topology", http.MethodPost, "/v1/analyze", `{"topology":{"kind":"blob","n":4}}`, 400, ReasonBadRequest},
		// Equalize cannot tune a chain whose cells are internal nodes.
		{"equalized spine simulate", http.MethodPost, "/v1/simulate", `{"topology":{"kind":"mesh","n":6},"mode":"clock","tree":"spine","equalize":true}`, 422, ReasonUnprocessable},
		{"equalized spine layout", http.MethodGet, "/v1/layout.svg?kind=mesh&n=6&tree=spine&equalize=true", "", 422, ReasonUnprocessable},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			if tc.body != "" {
				req.Header.Set("Content-Type", "application/json")
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d", resp.StatusCode, tc.status)
			}
			var eb ErrorBody
			if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
				t.Fatalf("body is not an ErrorBody: %v", err)
			}
			if eb.Reason != tc.reason {
				t.Fatalf("reason %q, want %q (error %q)", eb.Reason, tc.reason, eb.Error)
			}
			if eb.Error == "" {
				t.Fatal("error message empty")
			}
		})
	}
}

// A batch config that fails inline also lands in the structured log
// with its config index, so sweep failures are greppable without
// re-parsing response bodies.
func TestBatchErrorLoggedWithIndex(t *testing.T) {
	var buf bytes.Buffer
	_, ts := newTestServer(t, Config{LogWriter: &buf})
	body := `{"topology":{"kind":"mesh","n":4},"configs":[{"tree":"htree"},{"tree":"nope"}]}`
	resp, respBody := postJSON(t, ts.URL+"/v1/simulate", body)
	if resp.StatusCode != 200 {
		t.Fatalf("batch status %d: %s", resp.StatusCode, respBody)
	}
	var out SimulateBatchResponse
	if err := json.Unmarshal(respBody, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 2 || out.Results[1].Error == "" {
		t.Fatalf("config 1 should fail inline: %s", respBody)
	}
	found := false
	for _, line := range strings.Split(buf.String(), "\n") {
		if line == "" || !strings.Contains(line, "batch_config_error") {
			continue
		}
		var rec struct {
			Event       string `json:"event"`
			Endpoint    string `json:"endpoint"`
			ConfigIndex int    `json:"config_index"`
			Error       string `json:"error"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("unparseable log line %q: %v", line, err)
		}
		if rec.ConfigIndex != 1 || rec.Endpoint != "simulate" || rec.Error == "" {
			t.Fatalf("log line %q: want config_index 1 on endpoint simulate with an error", line)
		}
		found = true
	}
	if !found {
		t.Fatalf("no batch_config_error log line; log was:\n%s", buf.String())
	}
}
