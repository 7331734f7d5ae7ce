package service

import (
	"context"
	"encoding/json"
	"net/http"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/clocksim"
	"repro/internal/comm"
	"repro/internal/faults"
	"repro/internal/skew"
	"repro/internal/stats"
)

// warmSlackBytes bounds how far a warm request's allocations at 128² may
// exceed those at 32². A graph build on the warm path costs about 2.7 MB
// more at 128² than at 32², overshooting the slack many times over,
// while request-size noise (digits in names and keys) stays well inside
// it: warm requests measure 2–21 kB at either size.
const warmSlackBytes = 4 << 10

// warmBytesPerRequest returns the median heap bytes one call of compute
// allocates once its engine is cached. Garbage collection is off while
// it measures, so pooled scratch arenas stay put; the median discards
// the calls that still find a processor's arena pool empty.
func warmBytesPerRequest(t *testing.T, compute func(i int) error) uint64 {
	t.Helper()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for i := 0; i < 4; i++ { // build the engines, fill the arena pools
		if err := compute(i); err != nil {
			t.Fatal(err)
		}
	}
	var samples []uint64
	var before, after runtime.MemStats
	for i := 4; i < 25; i++ {
		runtime.ReadMemStats(&before)
		if err := compute(i); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		samples = append(samples, after.TotalAlloc-before.TotalAlloc)
	}
	slices.Sort(samples)
	return samples[len(samples)/2]
}

// checkWarmSizeIndependent measures a warm request at 32² and 128² on
// servers built from cfg and fails if the larger array allocates more
// than warmSlackBytes extra: a warm request must do no O(cells) work,
// the graph build included.
func checkWarmSizeIndependent(t *testing.T, cfg Config, compute func(s *Server, n, i int) error) {
	t.Helper()
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	at := map[int]uint64{}
	for _, n := range []int{32, 128} {
		s := NewServer(cfg)
		at[n] = warmBytesPerRequest(t, func(i int) error { return compute(s, n, i) })
	}
	t.Logf("warm request: %d B at 32², %d B at 128²", at[32], at[128])
	if at[128] > at[32]+warmSlackBytes {
		t.Errorf("warm request allocates %d B at 128² but %d B at 32²: more than %d B of O(cells) work",
			at[128], at[32], warmSlackBytes)
	}
}

func TestWarmAnalyzeAllocsIndependentOfCells(t *testing.T) {
	checkWarmSizeIndependent(t, Config{Workers: 1}, func(s *Server, n, i int) error {
		req := &AnalyzeRequest{
			GraphInput:    GraphInput{Topology: &TopologySpec{Kind: "mesh", N: n}},
			BufferSpacing: 1.5,
			Model:         ModelSpec{Kind: "linear", M: 1 + float64(i)/64, Eps: 0.1},
		}
		req.applyDefaults()
		res, err := s.computeAnalyze(context.Background(), req)
		if err == nil && res.status != http.StatusOK {
			t.Fatalf("status %d: %s", res.status, res.body)
		}
		return err
	})
}

// A warm analyze over the kernel limits hits its cached streamed-tier
// kernel: no graph or tree is built, so the kernel cache records the one
// miss of the first request however often the request repeats.
func TestWarmStreamedAnalyzeAllocsIndependentOfCells(t *testing.T) {
	checkWarmSizeIndependent(t, Config{Workers: 1, KernelLimits: skew.Limits{MaxPairs: 4}}, func(s *Server, n, i int) error {
		req := &AnalyzeRequest{
			GraphInput: GraphInput{Topology: &TopologySpec{Kind: "mesh", N: n}},
			Model:      ModelSpec{Kind: "linear", M: 1 + float64(i)/64, Eps: 0.1},
		}
		req.applyDefaults()
		res, err := s.computeAnalyze(context.Background(), req)
		if err == nil && res.status != http.StatusOK {
			t.Fatalf("status %d: %s", res.status, res.body)
		}
		var doc AnalyzeResponse
		if err == nil && (json.Unmarshal(res.body, &doc) != nil || !doc.Results[0].Streamed) {
			t.Fatalf("answer not streamed: %s", res.body)
		}
		if misses := s.metrics.kernelMisses.Load(); misses != 1 {
			t.Fatalf("request %d at %d²: kernel_cache_misses = %d, want 1", i, n, misses)
		}
		return err
	})
}

func TestWarmClockSimulateAllocsIndependentOfCells(t *testing.T) {
	checkWarmSizeIndependent(t, Config{Workers: 1}, func(s *Server, n, i int) error {
		req := &SimulateRequest{
			GraphInput: GraphInput{Topology: &TopologySpec{Kind: "mesh", N: n}},
			Mode:       "clock", Regime: "nominal",
			Params: ClockParamsSpec{M: 1 + float64(i)/64, Eps: 0.1},
		}
		req.applyDefaults()
		res, err := s.computeSimulate(context.Background(), req)
		if err == nil && res.status != http.StatusOK {
			t.Fatalf("status %d: %s", res.status, res.body)
		}
		return err
	})
}

// The hybrid engine's own per-request work grows with its element
// count, so the element size scales with the array to hold that count
// at 8×8: what is left to differ is the graph.
func TestWarmHybridSimulateAllocsIndependentOfCells(t *testing.T) {
	checkWarmSizeIndependent(t, Config{Workers: 1}, func(s *Server, n, i int) error {
		req := &SimulateRequest{
			GraphInput: GraphInput{Topology: &TopologySpec{Kind: "mesh", N: n}},
			Mode:       "hybrid",
			Hybrid:     &HybridSpec{ElementSize: float64(n / 8), CellDelay: 2 + float64(i)/64},
		}
		req.applyDefaults()
		res, err := s.computeSimulate(context.Background(), req)
		if err == nil && res.status != http.StatusOK {
			t.Fatalf("status %d: %s", res.status, res.body)
		}
		return err
	})
}

// A topology that cannot be built fails the whole request with its 400
// bad_request and its own message, before any other check: never as an
// inline per-tree or per-config error, although the graph is now built
// only inside the engine caches' build closures.
func TestBadTopologyFailsWholeRequest(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const bad = `"topology":{"kind":"mesh","n":-3}`
	cases := []struct{ name, path, body string }{
		{"analyze", "/v1/analyze", `{` + bad + `}`},
		{"analyze two trees", "/v1/analyze", `{` + bad + `,"trees":["htree","serpentine"]}`},
		{"analyze unknown tree", "/v1/analyze", `{` + bad + `,"trees":["nosuch"]}`},
		{"analyze bad model", "/v1/analyze", `{` + bad + `,"model":{"kind":"nosuch"}}`},
		{"analyze bad trials", "/v1/analyze", `{` + bad + `,"montecarlo_trials":-1}`},
		{"analyze bad band", "/v1/analyze", `{` + bad + `,"model":{"m":1,"eps":2},"montecarlo_trials":4}`},
		{"simulate clock", "/v1/simulate", `{` + bad + `,"mode":"clock"}`},
		{"simulate hybrid", "/v1/simulate", `{` + bad + `,"mode":"hybrid"}`},
		{"simulate bad hybrid config", "/v1/simulate", `{` + bad + `,"mode":"hybrid","hybrid":{"hold_delay":9}}`},
		{"simulate bad trials", "/v1/simulate", `{` + bad + `,"trials":-4}`},
		{"simulate batch", "/v1/simulate", `{` + bad + `,"configs":[{"mode":"clock"},{"mode":"hybrid"}]}`},
		{"simulate batch all inline", "/v1/simulate", `{` + bad + `,"configs":[{"trials":-1},{"mode":"nosuch"}]}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postJSON(t, ts.URL+tc.path, tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400: %s", resp.StatusCode, body)
			}
			var eb ErrorBody
			if err := json.Unmarshal(body, &eb); err != nil {
				t.Fatalf("body is not an ErrorBody: %v: %s", err, body)
			}
			if eb.Reason != ReasonBadRequest || !strings.Contains(eb.Error, "comm:") {
				t.Errorf("reason %q error %q, want bad_request with the topology's own message", eb.Reason, eb.Error)
			}
		})
	}
}

// An analyze job over a topology that cannot be built fails with the
// topology's own error and reason bad_request, whatever else is wrong.
func TestBadTopologyFailsAnalyzeJob(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, analyze := range []string{
		`{"topology":{"kind":"mesh","n":-3},"trees":["htree","nosuch"],"montecarlo_trials":4}`,
		`{"topology":{"kind":"mesh","n":-3},"model":{"kind":"nosuch"}}`,
		`{"topology":{"kind":"mesh","n":-3},"model":{"m":1,"eps":2},"montecarlo_trials":4}`,
	} {
		snap := createJob(t, ts.URL, `{"analyze":`+analyze+`}`)
		evs := readStream(t, ts.URL+"/v1/jobs/"+snap.ID+"/stream")
		last := evs[len(evs)-1]
		if last.State != "failed" || last.Reason != ReasonBadRequest || !strings.Contains(last.Error, "comm:") {
			t.Errorf("%s: terminal state %q reason %q error %q, want failed bad_request with the topology's message",
				analyze, last.State, last.Reason, last.Error)
		}
	}
}

// The streamed tier still engages under a low pair limit, on the first
// request (which builds the graph) and on a warm repeat (whose kernel is
// cached, so nothing builds it); both answer the graph and cell count
// and the certified bound from the kernel's graph.
func TestStreamedFallbackWarm(t *testing.T) {
	_, ts := newTestServer(t, Config{KernelLimits: skew.Limits{MaxPairs: 4}})
	var first TreeAnalysis
	for i, seed := range []string{"1", "2"} {
		resp, body := postJSON(t, ts.URL+"/v1/analyze",
			`{"topology":{"kind":"mesh","n":8},"certified_lower_bound":true,"seed":`+seed+`}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, resp.StatusCode, body)
		}
		var doc AnalyzeResponse
		if err := json.Unmarshal(body, &doc); err != nil {
			t.Fatal(err)
		}
		if doc.Graph == "" || doc.Cells != 64 || len(doc.Results) != 1 {
			t.Fatalf("request %d: graph %q cells %d results %d: %s", i, doc.Graph, doc.Cells, len(doc.Results), body)
		}
		r := doc.Results[0]
		if !r.Streamed || r.Error != "" || r.CertifiedLowerBound <= 0 {
			t.Fatalf("request %d: want a streamed answer with a certified bound: %+v", i, r)
		}
		if i == 0 {
			first = r
		} else if r.MaxSkew != first.MaxSkew || r.WorstPair != first.WorstPair || r.CertifiedLowerBound != first.CertifiedLowerBound {
			t.Errorf("warm streamed answer %+v differs from the first %+v", r, first)
		}
	}
}

// Many goroutines reaching one request's lazy graph at once — as a
// multi-tree analyze or a batch simulate does, some missing the engine
// caches and some hitting them — all see one graph, built at most once.
// Run under -race.
func TestLazyGraphConcurrent(t *testing.T) {
	engine, err := (GraphInput{Topology: &TopologySpec{Kind: "mesh", N: 6}}).build()
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 20; round++ {
		lg := &lazyGraph{in: GraphInput{Topology: &TopologySpec{Kind: "mesh", N: 6}}}
		got := make([]*comm.Graph, 8)
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if i%2 == 0 {
					lg.adopt(engine)
				}
				g, err := lg.get()
				if err != nil {
					t.Error(err)
				}
				got[i] = g
			}(i)
		}
		wg.Wait()
		for i, g := range got {
			if g != got[0] || g.NumCells() != 36 {
				t.Fatalf("round %d: goroutine %d saw graph %p (%d cells), goroutine 0 saw %p", round, i, g, g.NumCells(), got[0])
			}
		}
	}
}

// A multi-tree analyze and a batch simulate over a fresh topology fan
// out over several workers that race to build, and to hit, the engines
// sharing one lazy graph; their answers match a one-worker server's.
func TestLazyGraphFanOutMatchesSequential(t *testing.T) {
	const analyze = `{"topology":{"kind":"mesh","n":8},"trees":["htree","serpentine","spine","htree"],"montecarlo_trials":8,"certified_lower_bound":true}`
	const batch = `{"topology":{"kind":"mesh","n":8},"configs":[{"regime":"random","trials":3},{"mode":"hybrid"},{"tree":"serpentine"},{"regime":"random","trials":3,"seed":5},{"mode":"hybrid","hybrid":{"element_size":2}}]}`
	_, seq := newTestServer(t, Config{Workers: 1})
	for _, tc := range []struct{ path, body string }{{"/v1/analyze", analyze}, {"/v1/simulate", batch}} {
		_, want := postJSON(t, seq.URL+tc.path, tc.body)
		for round := 0; round < 5; round++ {
			_, par := newTestServer(t, Config{Workers: 4})
			resp, got := postJSON(t, par.URL+tc.path, tc.body)
			if resp.StatusCode != http.StatusOK || string(got) != string(want) {
				t.Fatalf("%s round %d: status %d\n got  %s\n want %s", tc.path, round, resp.StatusCode, got, want)
			}
		}
	}
}

// perSourceBytes is well under the ~5 kB a math/rand source costs: a
// random-regime trial that forked a fresh generator would exceed it on
// its own, while a trial's own share (its value in the chunk slice, the
// summary's copy) is a few words.
const perSourceBytes = 1 << 10

// A random or jittered clock simulation reseeds one generator per chunk
// of trials with RNG.ForkInto and shares one fault injector per chunk,
// which reseeds one decision generator per fault decision: its
// allocations must not grow by a generator (RNG.Fork) per trial or per
// jittered clock-tree edge.
func TestClockSimulateAllocsIndependentOfTrials(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	for _, tc := range []struct {
		name, regime string
		faults       *faults.Config
	}{
		{"random", "random", nil},
		{"jittered", "jittered", nil},
		{"jittered-faulty", "jittered", &faults.Config{JitterProb: 0.5, MaxJitter: 0.2}},
	} {
		s := NewServer(Config{Workers: 1})
		at := map[int]uint64{}
		for _, trials := range []int{16, 272} {
			at[trials] = warmBytesPerRequest(t, func(i int) error {
				req := &SimulateRequest{
					GraphInput: GraphInput{Topology: &TopologySpec{Kind: "mesh", N: 8}},
					Mode:       "clock", Regime: tc.regime, Trials: trials, Seed: int64(i),
					Params: ClockParamsSpec{M: 1, Eps: 0.1}, Faults: tc.faults,
				}
				req.applyDefaults()
				res, err := s.computeSimulate(context.Background(), req)
				if err == nil && res.status != http.StatusOK {
					t.Fatalf("status %d: %s", res.status, res.body)
				}
				return err
			})
		}
		perTrial := (int64(at[272]) - int64(at[16])) / 256
		t.Logf("%s: %d B at 16 trials, %d B at 272 trials, %d B per extra trial", tc.name, at[16], at[272], perTrial)
		if perTrial > perSourceBytes {
			t.Errorf("%s simulate allocates %d B per trial, more than %d B: a generator per trial or per fault decision is back",
				tc.name, perTrial, perSourceBytes)
		}
	}
}

// A clock simulation's summary is the per-trial loop's, bit for bit, in
// every regime: trial i of the random and jittered regimes draws from
// stream i of the seed, and nominal and adversarial, which draw nothing,
// repeat one value however many trials ask for it.
func TestClockSimulateMatchesPerTrialLoop(t *testing.T) {
	s := NewServer(Config{Workers: 3})
	jitter := &faults.Config{JitterProb: 0.5, MaxJitter: 0.3}
	for _, regime := range []string{"nominal", "random", "jittered", "adversarial"} {
		for _, trials := range []int{1, 7, 300} {
			req := &SimulateRequest{
				GraphInput: GraphInput{Topology: &TopologySpec{Kind: "mesh", N: 6}},
				Mode:       "clock", Regime: regime, Trials: trials, Seed: 11,
				Params: ClockParamsSpec{M: 1, Eps: 0.1},
			}
			if regime == "jittered" {
				req.Faults = jitter
			}
			req.applyDefaults()
			cfg := req.config()
			lg := &lazyGraph{in: req.GraphInput}
			got, err := s.simulateOne(context.Background(), req.GraphInput, lg, &cfg)
			if err != nil {
				t.Fatalf("%s/%d: %v", regime, trials, err)
			}
			k, err := s.kernelFor(cfg.engineID(req.GraphInput), lg)
			if err != nil {
				t.Fatal(err)
			}
			p := clocksim.Params{
				M: cfg.Params.M, Eps: cfg.Params.Eps,
				BufferDelay:   cfg.Params.BufferDelay,
				MinSeparation: cfg.Params.MinSeparation,
				RiseFallBias:  cfg.Params.RiseFallBias,
			}
			rng := stats.NewRNG(cfg.Seed)
			inj, err := faults.New(*jitter, cfg.Seed)
			if err != nil {
				t.Fatal(err)
			}
			a, b := k.Graph().PairIndex().Pair(0)
			vals := make([]float64, trials)
			for i := range vals {
				switch regime {
				case "nominal":
					vals[i], err = k.NominalSkew(p)
				case "random":
					vals[i], err = k.RandomSkew(p, rng.Fork(int64(i)))
				case "jittered":
					vals[i], err = k.JitteredSkew(p, rng.Fork(int64(i)), inj)
				case "adversarial":
					vals[i], err = k.AdversarialSkew(p, a, b)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			if want := summaryJSON(stats.Summarize(vals)); *got.CommSkew != *want {
				t.Errorf("%s/%d trials: summary %+v, per-trial loop %+v", regime, trials, *got.CommSkew, *want)
			}
		}
	}
}

// A jittered simulation reports how many clock-tree edges its fault
// pattern jittered: the tally of one trial, the same for every trial of
// a seed. The root has no edge, so it is never counted.
func TestJitteredFaultTallyCountsOneTrial(t *testing.T) {
	s := NewServer(Config{Workers: 2})
	jitter := faults.Config{JitterProb: 0.5, MaxJitter: 1}
	for _, seed := range []int64{3, 5} {
		req := &SimulateRequest{
			GraphInput: GraphInput{Topology: &TopologySpec{Kind: "mesh", N: 8}},
			Mode:       "clock", Regime: "jittered", Trials: 9, Seed: seed,
			Params: ClockParamsSpec{M: 1, Eps: 0.1}, Faults: &jitter,
		}
		req.applyDefaults()
		res, err := s.computeSimulate(context.Background(), req)
		if err != nil || res.status != http.StatusOK {
			t.Fatalf("seed %d: status %d err %v: %s", seed, res.status, err, res.body)
		}
		var doc SimulateResponse
		if err := json.Unmarshal(res.body, &doc); err != nil {
			t.Fatal(err)
		}
		cfg := req.config()
		k, err := s.kernelFor(cfg.engineID(req.GraphInput), &lazyGraph{in: req.GraphInput})
		if err != nil {
			t.Fatal(err)
		}
		inj, err := faults.New(jitter, seed)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := k.JitteredSkew(clocksim.Params{M: 1, Eps: 0.1}, stats.NewRNG(seed).Fork(0), inj); err != nil {
			t.Fatal(err)
		}
		want := inj.Counts().Jittered
		if want <= 0 || want >= int64(k.Tree().NumNodes()) {
			t.Fatalf("seed %d: one trial jittered %d of %d edges", seed, want, k.Tree().NumNodes()-1)
		}
		if doc.Faults == nil || doc.Faults.Jittered != want {
			t.Errorf("seed %d: reported faults %+v, one trial jittered %d edges", seed, doc.Faults, want)
		}
	}
}
