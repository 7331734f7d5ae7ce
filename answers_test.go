package vlsisync

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/service"
	"repro/internal/skew"
)

var updateDigests = flag.Bool("update", false, "rewrite testdata/answers.sha256 from the current answers")

const digestFile = "testdata/answers.sha256"

// answerCorpus is the fixed set of requests whose response bodies
// TestAnswerDigests pins. Each runs against a fresh default server, or
// against one with tiny kernel limits when streamed is set, so that
// every analyze request there is answered by the streamed tier.
var answerCorpus = []struct {
	name     string
	streamed bool
	path     string // request path; a GET when body is empty
	body     string
}{
	{name: "plan/mesh8", path: "/v1/plan", body: `{"topology":{"kind":"mesh","n":8}}`},
	{name: "analyze/resident-mesh", path: "/v1/analyze",
		body: `{"topology":{"kind":"mesh","n":8},"trees":["htree","spine","serpentine"],"montecarlo_trials":16,"seed":3,"certified_lower_bound":true}`},
	{name: "analyze/resident-mesh-buffered", path: "/v1/analyze",
		body: `{"topology":{"kind":"mesh","n":8},"trees":["htree"],"equalize":true,"buffer_spacing":1,"model":{"kind":"summation","eps":0.2},"montecarlo_trials":16,"seed":4}`},
	{name: "analyze/resident-tree-comm", path: "/v1/analyze",
		body: `{"topology":{"kind":"tree","n":6},"trees":["comm","htree"],"montecarlo_trials":16,"seed":5}`},
	{name: "analyze/streamed-mesh", streamed: true, path: "/v1/analyze",
		body: `{"topology":{"kind":"mesh","n":8},"trees":["htree","spine"],"montecarlo_trials":16,"seed":3}`},
	{name: "analyze/streamed-tree-comm", streamed: true, path: "/v1/analyze",
		body: `{"topology":{"kind":"tree","n":6},"trees":["comm"],"montecarlo_trials":16,"seed":5}`},
	{name: "simulate/batch", path: "/v1/simulate",
		body: `{"topology":{"kind":"mesh","n":6},"configs":[
			{"regime":"nominal","params":{"buffer_delay":0.1}},
			{"regime":"random","trials":8,"seed":3,"params":{"eps":0.2}},
			{"regime":"jittered","trials":8,"seed":3,"params":{"eps":0.2},"faults":{"JitterProb":0.3,"MaxJitter":0.5}},
			{"regime":"adversarial","pair":[0,35]},
			{"tree":"spine","buffer_spacing":2,"regime":"random","trials":4,"seed":9,"params":{"buffer_delay":0.05,"rise_fall_bias":0.01,"min_separation":0.5}},
			{"mode":"hybrid","seed":9,"hybrid":{"element_size":3,"waves":8}}]}`},
	{name: "layout/tree-comm", path: "/v1/layout.svg?kind=tree&n=5&tree=comm"},
	{name: "layout/tree-comm-buffered", path: "/v1/layout.svg?kind=tree&n=5&tree=comm&spacing=1.5"},
}

// analyzeJob is the corpus's resident job: an analyze whose Monte-Carlo
// trials run in chunks, pinned by its final result.
const analyzeJob = `{"analyze":{"topology":{"kind":"mesh","n":8},"trees":["htree","spine"],"equalize":true,"montecarlo_trials":24,"seed":6},"chunk_trials":5}`

// analyzeStreamedJob is an analyze job the streamed tier serves, with
// the certified bound and a builder that does not apply to a mesh.
const analyzeStreamedJob = `{"analyze":{"topology":{"kind":"mesh","n":8},"trees":["htree","ladder"],"montecarlo_trials":16,"seed":3,"certified_lower_bound":true},"chunk_trials":4}`

// simulateRecipes and simulateRegimes span the single simulate requests
// of the corpus: every regime on every recipe.
var (
	simulateRecipes = []struct{ name, graph, recipe string }{
		{"htree-mesh", `"topology":{"kind":"mesh","n":8}`, `"tree":"htree","equalize":true`},
		{"comm-tree", `"topology":{"kind":"tree","n":6}`, `"tree":"comm"`},
		{"comm-tree-buffered", `"topology":{"kind":"tree","n":6}`, `"tree":"comm","buffer_spacing":1.5`},
	}
	simulateRegimes = []struct{ name, fields string }{
		{"nominal", `"regime":"nominal"`},
		{"random", `"regime":"random","trials":12,"seed":7`},
		{"jittered", `"regime":"jittered","trials":12,"seed":7,"faults":{"JitterProb":0.3,"MaxJitter":0.5}`},
		{"adversarial", `"regime":"adversarial"`},
	}
)

// simParams exercises every clock parameter, drift and period included.
const simParams = `"params":{"eps":0.2,"buffer_delay":0.1,"min_separation":0.5,"rise_fall_bias":0.02}`

// TestAnswerDigests pins the answers the repository computes to the
// SHA-256 digests committed in testdata/answers.sha256: the full
// experiment suite's markdown output (what `go run ./cmd/experiments
// -format markdown -metrics=false` prints) and the response bodies of
// a fixed request corpus served through syncd's handler. A change that
// moves any answer, even in the last bit of one float, fails here; one
// that means to regenerates the file with -update and names every
// changed digest and its reason in CHANGES.md.
func TestAnswerDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("answer digests are pinned on amd64: Go may fuse multiply-adds into FMA instructions on other architectures (arm64 among them), which moves float answers in the last bit")
	}
	got := map[string]string{}

	results, _, err := RunExperiments(context.Background(), RunOptions{Parallel: runtime.GOMAXPROCS(0)})
	if err != nil {
		t.Fatalf("experiment suite: %v", err)
	}
	var md bytes.Buffer
	if err := WriteResults(&md, results, "markdown"); err != nil {
		t.Fatal(err)
	}
	got["experiments/markdown"] = digest(md.Bytes())

	resident := newDigestServer(t, service.Config{})
	streamed := newDigestServer(t, service.Config{KernelLimits: skew.Limits{MaxBytes: 1}})
	for _, c := range answerCorpus {
		url := resident + c.path
		if c.streamed {
			url = streamed + c.path
		}
		got[c.name] = digest(fetch(t, url, c.body))
	}
	got["job/analyze"] = digest(jobResult(t, resident, analyzeJob))
	got["job/analyze-streamed"] = digest(jobResult(t, streamed, analyzeStreamedJob))
	for _, r := range simulateRecipes {
		for _, g := range simulateRegimes {
			body := "{" + r.graph + "," + r.recipe + "," + g.fields + "," + simParams + "}"
			got["simulate/"+r.name+"/"+g.name] = digest(fetch(t, resident+"/v1/simulate", body))
		}
	}

	if *updateDigests {
		writeDigests(t, got)
		return
	}
	want := readDigests(t)
	var changed []string
	for name, d := range got {
		if want[name] != d {
			changed = append(changed, name)
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			changed = append(changed, name+" (no longer produced)")
		}
	}
	slices.Sort(changed)
	if len(changed) > 0 {
		t.Fatalf("%d answer digest(s) differ from %s: %s\nIf the change is intended, rerun with -update and list each changed digest and its reason in CHANGES.md.",
			len(changed), digestFile, strings.Join(changed, ", "))
	}
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// newDigestServer serves a fresh syncd handler for one test.
func newDigestServer(t *testing.T, cfg service.Config) string {
	t.Helper()
	s := service.NewServer(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(func() { ts.Close(); s.Close() })
	return ts.URL
}

// fetch GETs url, or POSTs body to it when body is non-empty, and
// returns the body of a 200 response.
func fetch(t *testing.T, url, body string) []byte {
	t.Helper()
	var resp *http.Response
	var err error
	if body == "" {
		resp, err = http.Get(url)
	} else {
		resp, err = http.Post(url, "application/json", strings.NewReader(body))
	}
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s %s: status %d: %s", url, body, resp.StatusCode, b)
	}
	return b
}

// jobResult creates a job from body, follows its event stream to the
// terminal event and returns that event's result: the job's answer,
// without the stream's wall-clock fields.
func jobResult(t *testing.T, base, body string) []byte {
	t.Helper()
	var snap struct{ ID string }
	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&snap)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs: status %d, %v", resp.StatusCode, err)
	}
	lines := bytes.Split(bytes.TrimSpace(fetch(t, base+"/v1/jobs/"+snap.ID+"/stream", "")), []byte("\n"))
	var last struct {
		State  string
		Error  string
		Result json.RawMessage
	}
	if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil {
		t.Fatal(err)
	}
	if last.State != "done" {
		t.Fatalf("job %s ended %q: %s", snap.ID, last.State, last.Error)
	}
	return last.Result
}

func readDigests(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(digestFile)
	if err != nil {
		t.Fatalf("%v (generate it with -update)", err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		d, name, ok := strings.Cut(sc.Text(), "  ")
		if !ok {
			t.Fatalf("%s: malformed line %q", digestFile, sc.Text())
		}
		want[name] = d
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// writeDigests writes got in sha256sum's "digest  name" form, sorted by
// name.
func writeDigests(t *testing.T, got map[string]string) {
	t.Helper()
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	slices.Sort(names)
	var b strings.Builder
	for _, name := range names {
		fmt.Fprintf(&b, "%s  %s\n", got[name], name)
	}
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(digestFile, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}
