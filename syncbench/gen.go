package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/url"
	"strconv"
	"time"

	"repro/internal/service"
)

// Item is one distinct request of a workload in wire form.
type Item struct {
	Kind   string // plan | analyze | simulate | layout | job
	Method string
	Path   string
	Body   []byte // nil for GET
}

// Workload is a seeded, fully materialized request list. Closed loops
// send Sequence in order from one client; the open loop sends
// Sequence[i] at offset Due(i) from the start of the run.
type Workload struct {
	Name     string
	Open     bool
	Rate     float64 // open loop only: scheduled requests per second
	Warmup   int     // leading requests excluded from timing
	Fill     []int   // items sent during setup (counted in setup_s)
	Items    []Item
	Sequence []int
}

// Due is the scheduled send offset of the i-th request of an open loop.
func (w *Workload) Due(i int) time.Duration {
	return time.Duration(float64(i) / w.Rate * float64(time.Second))
}

// Workload names, in the order BENCHMARK.json lists them.
var workloadNames = []string{"plan-cold", "analyze-cold", "analyze-warm", "mixed-open"}

// Sizing. Closed loops send a fixed list sized so a run takes about the
// requested seconds on a 2-core host, and at least minClosedTimed timed
// requests: enough for a p90 with fifteen samples beyond it. The open
// loop runs at a fixed rate well below the capacity measured with 2
// connections (about 2500/s with its mix).
const (
	planColdPerSecond    = 35
	analyzeColdPerSecond = 30
	analyzeWarmPerSecond = 30
	closedWarmup         = 8
	minClosedTimed       = 150
	timedWindows         = 5
	// windowStrata is a whole number of every closed loop's strata:
	// 3 plan-cold variants, 6 analyze-warm recipes times 4 trial
	// counts. Each window holds a multiple of it, so every window holds
	// each variant equally often.
	windowStrata = 24
	// kernelCacheEntries is syncd's default bound on each engine
	// cache (skew kernels, clocksim kernels, hybrid systems); the
	// replay's caches share it. The analyze-cold list must hold more
	// recipes than this so the kernel cache reaches its plateau: with
	// two trees per request, minClosedTimed requests do.
	kernelCacheEntries = 256
	mixedOpenRate      = 400.0
	repeatShare        = 0.5
	// hotItems is how many distinct mixed-open requests repeats draw
	// from: well inside syncd's 1024-entry result cache.
	hotItems = 256
)

// Generate builds the named workload's request list from seed for a run
// of the given length. The same (name, seed, seconds) always yields
// byte-identical lists.
func Generate(name string, seed int64, seconds int) (*Workload, error) {
	if seconds < 1 {
		return nil, fmt.Errorf("seconds must be at least 1, got %d", seconds)
	}
	w := &Workload{Name: name}
	var g *generator
	switch name {
	case "plan-cold":
		g = newGenerator(seed, closedWarmup)
		g.closedLoop(w, closedTimed(planColdPerSecond, seconds), g.planCold)
	case "analyze-cold":
		g = newGenerator(seed, closedWarmup)
		g.closedLoop(w, closedTimed(analyzeColdPerSecond, seconds), g.analyzeCold)
	case "analyze-warm":
		g = newGenerator(seed, closedWarmup)
		for _, r := range warmRecipes {
			w.Fill = append(w.Fill, g.add(w, analyzeItem(&service.AnalyzeRequest{
				GraphInput: meshInput(r.side), Trees: r.trees, BufferSpacing: r.spacing,
				Model: service.ModelSpec{Kind: "linear", M: 1, Eps: 0.1}, Seed: 1,
			})))
		}
		g.closedLoop(w, closedTimed(analyzeWarmPerSecond, seconds), g.analyzeWarm)
	case "mixed-open":
		w.Open, w.Rate = true, mixedOpenRate
		// One second of warm-up, then the timed requests.
		w.Warmup = int(mixedOpenRate)
		n := w.Warmup + int(mixedOpenRate*float64(seconds))
		// Fresh draws are stratified in blocks of hotItems, so the hot
		// set, and each later block, holds the mix's shares.
		g = newGenerator(seed, hotItems)
		g.mixedOpen(w, n)
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	return w, nil
}

// closedTimed is how many timed requests a closed loop drawing at
// perSecond sends in a run of the given length: at least minClosedTimed,
// in timedWindows windows of a whole number of windowStrata requests.
func closedTimed(perSecond, seconds int) int {
	n := max(perSecond*seconds, minClosedTimed)
	block := timedWindows * windowStrata
	return (n + block - 1) / block * block
}

// closedLoop appends closedWarmup warm-up requests and then timed
// distinct requests from draw to w's sequence. The timed requests are
// stratified window by window, so each of the timedWindows windows
// holds the same mix of cheap and expensive requests.
func (g *generator) closedLoop(w *Workload, timed int, draw func() Item) {
	w.Warmup = closedWarmup
	for n := closedWarmup; n <= closedWarmup+timed; n += timed / timedWindows {
		for len(w.Sequence) < n {
			if idx := g.add(w, draw()); idx >= 0 {
				w.Sequence = append(w.Sequence, idx)
			}
		}
		g.kind = &stream{r: g.r, n: timed / timedWindows}
		g.variant = &stream{r: g.r, n: timed / timedWindows}
	}
}

// generator draws requests from one seeded source and refuses
// duplicates, so every request a closed loop sends is distinct. The
// draws that set a request's cost come from streams stratified over the
// whole list: a request's endpoint, its variant and its size all come
// from one kind value through split, so each variant's sizes are
// stratified too, and every seed's list holds nearly the same mix of
// cheap and expensive requests; seeds differ in order and parameters.
type generator struct {
	r             *rand.Rand
	seen          map[string]bool
	jobs          int
	kind, variant *stream
}

func newGenerator(seed int64, block int) *generator {
	r := rand.New(rand.NewSource(seed))
	return &generator{r: r, seen: map[string]bool{}, kind: &stream{r: r, n: block}, variant: &stream{r: r, n: block}}
}

// stream yields values in [0, 1) in blocks of n: each block holds
// exactly one value in every interval [i/n, (i+1)/n), in seeded random
// order.
type stream struct {
	r   *rand.Rand
	n   int
	buf []float64
}

func (s *stream) next() float64 {
	if len(s.buf) == 0 {
		s.buf = make([]float64, max(s.n, 1))
		for i := range s.buf {
			s.buf[i] = (float64(i) + s.r.Float64()) / float64(len(s.buf))
		}
		s.r.Shuffle(len(s.buf), func(i, j int) { s.buf[i], s.buf[j] = s.buf[j], s.buf[i] })
	}
	v := s.buf[0]
	s.buf = s.buf[1:]
	return v
}

// pick returns the element of xs a stream value selects.
func pick[T any](s *stream, xs []T) T { return xs[int(s.next()*float64(len(xs)))] }

// split maps u in [0, 1) to one of k equal parts and the position of u
// within it, in [0, 1). When u comes from a stratified stream, the
// positions of the values falling in one part are stratified as well.
func split(u float64, k int) (int, float64) {
	i := min(int(u*float64(k)), k-1)
	return i, u*float64(k) - float64(i)
}

// sized maps v in [0, 1) uniformly onto [lo, hi].
func sized(v float64, lo, hi int) int {
	return lo + int(float64(hi-lo+1)*v)
}

// sizedSmall maps v in [0, 1) onto [lo, hi] skewed toward lo: the
// square of v is uniform. mixed-open draws its mesh sides this way;
// LAYERS.md gives the measurement behind it.
func sizedSmall(v float64, lo, hi int) int {
	return sized(v*v, lo, hi)
}

// add appends it to w unless an identical request exists, in which case
// it returns -1. It returns the new item's index.
func (g *generator) add(w *Workload, it Item) int {
	if it.Kind == "" {
		return -1
	}
	id := it.Method + " " + it.Path + " " + string(it.Body)
	if g.seen[id] {
		return -1
	}
	g.seen[id] = true
	w.Items = append(w.Items, it)
	return len(w.Items) - 1
}

// round keeps drawn parameters short and exactly representable in the
// JSON bodies.
func round(v float64, digits int) float64 {
	p := math.Pow(10, float64(digits))
	return math.Round(v*p) / p
}

func meshInput(side int) service.GraphInput {
	return service.GraphInput{Topology: &service.TopologySpec{Kind: "mesh", Rows: side, Cols: side}}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("syncbench: encoding generated request: %v", err))
	}
	return b
}

func planItem(r *service.PlanRequest) Item {
	return Item{Kind: "plan", Method: "POST", Path: "/v1/plan", Body: mustJSON(r)}
}

func analyzeItem(r *service.AnalyzeRequest) Item {
	return Item{Kind: "analyze", Method: "POST", Path: "/v1/analyze", Body: mustJSON(r)}
}

func simulateItem(r *service.SimulateRequest) Item {
	return Item{Kind: "simulate", Method: "POST", Path: "/v1/simulate", Body: mustJSON(r)}
}

// planCold draws one plan, in equal shares: the summation model on a
// mesh (hybrid scheme plus the certified lower bound), the difference
// model on a mesh (equalized H-tree plus skew analysis), or a 1-D array
// (spine). Sizes are uniform over their range.
func (g *generator) planCold() Item {
	req := &service.PlanRequest{M: 1, Delta: 2, BufferSpacing: 1, Eps: round(0.05+0.25*g.r.Float64(), 4)}
	switch variant, v := split(g.kind.next(), 3); variant {
	case 0:
		req.GraphInput, req.Model = meshInput(sized(v, 32, 128)), "summation"
	case 1:
		req.GraphInput, req.Model = meshInput(sized(v, 32, 128)), "difference"
	default:
		req.GraphInput = service.GraphInput{Topology: &service.TopologySpec{Kind: "linear", N: sized(v, 256, 4096)}}
		req.Model = "summation"
	}
	return planItem(req)
}

// analyzeCold draws one (mesh, tree recipe) pair the server has not
// seen: two trees, a varied buffer spacing, no Monte Carlo. Sides are
// uniform over 32–96: 300 distinct recipes over 32²–128² took syncd to
// about 3.7 GB, half of an 8 GB host's RAM, and the narrower range
// keeps the kernel cache's plateau well under host RAM.
func (g *generator) analyzeCold() Item {
	return analyzeItem(&service.AnalyzeRequest{
		GraphInput:    meshInput(sized(g.kind.next(), 32, 96)),
		Trees:         []string{"htree", "spine"},
		BufferSpacing: round(0.5+2.5*g.variant.next(), 2),
		Model:         service.ModelSpec{Kind: "linear", M: 1, Eps: 0.1},
		Seed:          1,
	})
}

// warmRecipes are analyze-warm's fixed kernels, built during setup.
// Their sizes are spread evenly over 64²–128² so request latencies form
// a continuum rather than a few separated modes, which would let a
// percentile jump between modes from run to run.
var warmRecipes = []struct {
	side    int
	trees   []string
	spacing float64
}{
	{64, []string{"htree"}, 1},
	{76, []string{"spine"}, 1.5},
	{88, []string{"htree"}, 1.25},
	{100, []string{"spine"}, 2},
	{112, []string{"htree"}, 1.5},
	{128, []string{"htree"}, 2},
}

// modelSpec draws a skew model with varied parameters.
func (g *generator) modelSpec() service.ModelSpec {
	kinds := []string{"difference", "summation", "linear"}
	return service.ModelSpec{
		Kind: kinds[g.r.Intn(len(kinds))],
		M:    round(0.5+g.r.Float64(), 3),
		Eps:  round(0.05+0.2*g.r.Float64(), 4),
	}
}

// analyzeWarm draws a request over one of the warm recipes whose model,
// seed and trial count differ from every other request: a result-cache
// miss and a kernel-cache hit.
func (g *generator) analyzeWarm() Item {
	i, v := split(g.kind.next(), len(warmRecipes))
	rc := warmRecipes[i]
	trials, _ := split(v, 4)
	return analyzeItem(&service.AnalyzeRequest{
		GraphInput: meshInput(rc.side), Trees: rc.trees, BufferSpacing: rc.spacing,
		Model:            g.modelSpec(),
		MonteCarloTrials: []int{0, 8, 16, 32}[trials],
		Seed:             1 + g.r.Int63n(1<<30),
	})
}

// mixedOpen fills w with n scheduled requests: repeatShare of them
// repeat one of the first hotItems requests, drawn uniformly, and the
// rest draw a fresh small request, so a few hundred hot requests carry
// half the traffic. Jobs never repeat. The repeat decision is
// stratified, so every seed repeats the same share. Every repeat of the
// hot set hits syncd's result cache, and a uniform draw over it keeps
// any one request from carrying much of the run: a square-law draw sent
// 4% of a run to the hottest request.
func (g *generator) mixedOpen(w *Workload, n int) {
	repeat := &stream{r: g.r, n: n}
	var repeatable []int
	for len(w.Sequence) < n {
		if len(repeatable) > 0 && repeat.next() < repeatShare {
			hot := repeatable[:min(len(repeatable), hotItems)]
			w.Sequence = append(w.Sequence, hot[g.r.Intn(len(hot))])
			continue
		}
		idx := g.add(w, g.smallRequest())
		if idx < 0 {
			continue
		}
		w.Sequence = append(w.Sequence, idx)
		if w.Items[idx].Kind != "job" {
			repeatable = append(repeatable, idx)
		}
	}
}

// mixedWeights are mixed-open's endpoint weights: syncload's default
// mix (plan=4, analyze=3, simulate=2, batch=1, layout=1) plus hybrid
// simulations, which that mix lacks, at the weight of its smallest
// entry. They share all requests but jobShare, which go to /v1/jobs.
var mixedWeights = []struct {
	kind   string
	weight float64
}{{"plan", 4}, {"analyze", 3}, {"simulate", 2}, {"batch", 1}, {"layout", 1}, {"hybrid", 1}}

const jobShare = 0.01

// mixedKind maps a stream value u in [0, 1) to an endpoint by
// mixedWeights and jobShare, and returns the position of u within the
// endpoint's share, in [0, 1), as split does.
func mixedKind(u float64) (string, float64) {
	if u >= 1-jobShare {
		return "job", (u - (1 - jobShare)) / jobShare
	}
	var total, lo float64
	for _, m := range mixedWeights {
		total += m.weight
	}
	for i, m := range mixedWeights {
		w := m.weight / total * (1 - jobShare)
		if u < lo+w || i == len(mixedWeights)-1 {
			return m.kind, min((u-lo)/w, math.Nextafter(1, 0))
		}
		lo += w
	}
	panic("unreachable")
}

// smallRequest draws one cheap request across every endpoint
// mixed-open covers: plans on meshes up to 32², rings and short arrays;
// analyses, simulations and layouts on meshes up to 24²; and Monte-Carlo
// analyze jobs on meshes up to 16². Mesh sides are skewed toward small
// (sizedSmall), other sizes are uniform over their range, and the
// variants within an endpoint have equal shares.
func (g *generator) smallRequest() Item {
	spacings := []float64{0, 1, 2}
	kind, v := mixedKind(g.kind.next())
	switch kind {
	case "plan":
		req := &service.PlanRequest{M: 1, Delta: 2, BufferSpacing: 1, Eps: round(0.05+0.25*g.r.Float64(), 4)}
		switch variant, v := split(v, 4); variant {
		case 0:
			req.GraphInput, req.Model = meshInput(sizedSmall(v, 4, 32)), "summation"
		case 1:
			req.GraphInput, req.Model = meshInput(sizedSmall(v, 4, 32)), "difference"
		case 2:
			req.GraphInput = service.GraphInput{Topology: &service.TopologySpec{Kind: "ring", N: sized(v, 8, 256)}}
			req.Model = "summation"
		default:
			req.GraphInput = service.GraphInput{Topology: &service.TopologySpec{Kind: "linear", N: sized(v, 8, 512)}}
			req.Model = "summation"
		}
		return planItem(req)
	case "analyze":
		trials, v := split(v, 3)
		return analyzeItem(&service.AnalyzeRequest{
			GraphInput: meshInput(sizedSmall(v, 4, 24)), Trees: pick(g.variant, [][]string{{"htree"}, {"spine"}, {"htree", "spine"}}),
			BufferSpacing:    spacings[g.r.Intn(len(spacings))],
			Model:            g.modelSpec(),
			MonteCarloTrials: []int{0, 8, 32}[trials],
			Seed:             1 + g.r.Int63n(1000),
		})
	case "simulate":
		c := g.clockConfig()
		return simulateItem(&service.SimulateRequest{
			GraphInput: meshInput(sizedSmall(v, 4, 24)), Mode: c.Mode, Tree: c.Tree, BufferSpacing: c.BufferSpacing,
			Regime: c.Regime, Trials: c.Trials, Seed: c.Seed, Params: c.Params,
		})
	case "hybrid":
		sizes := []float64{2, 4, 8}
		return simulateItem(&service.SimulateRequest{
			GraphInput: meshInput(sizedSmall(v, 4, 24)), Mode: "hybrid", Tree: "htree", Regime: "nominal", Trials: 1, Seed: 1,
			Params: service.ClockParamsSpec{M: 1},
			Hybrid: &service.HybridSpec{
				ElementSize: sizes[g.r.Intn(len(sizes))], CellDelay: 2, HoldDelay: 0.5,
				Handshake: round(0.5+g.r.Float64(), 3), LocalDistribution: round(0.5*g.r.Float64(), 3),
				Waves: 8 + g.r.Intn(25),
			},
		})
	case "batch":
		extra, v := split(v, 3)
		req := &service.SimulateRequest{GraphInput: meshInput(sizedSmall(v, 4, 24))}
		for i := 0; i < 2+extra; i++ {
			req.Configs = append(req.Configs, g.clockConfig())
		}
		return simulateItem(req)
	case "layout":
		s := strconv.Itoa(sizedSmall(v, 4, 24))
		// A caption of its own makes every layout distinct.
		q := url.Values{"kind": {"mesh"}, "rows": {s}, "cols": {s}, "caption": {fmt.Sprintf("syncbench %d", g.r.Int63n(1<<30))}}
		if t := []string{"htree", "spine", "none"}[g.r.Intn(3)]; t != "none" {
			q.Set("tree", t)
		}
		return Item{Kind: "layout", Method: "GET", Path: "/v1/layout.svg?" + q.Encode()}
	default:
		g.jobs++
		return Item{Kind: "job", Method: "POST", Path: "/v1/jobs", Body: mustJSON(&service.JobRequest{
			ID:          fmt.Sprintf("syncbench-%d", g.jobs),
			ChunkTrials: 32,
			Analyze: &service.AnalyzeRequest{
				GraphInput: meshInput(sized(v, 8, 16)), Trees: []string{"htree"},
				Model:            service.ModelSpec{Kind: "linear", M: 1, Eps: round(0.05+0.2*g.r.Float64(), 4)},
				MonteCarloTrials: 32 + g.r.Intn(97),
				Seed:             1 + g.r.Int63n(1000),
			},
		})}
	}
}

// clockConfig draws one clock-mode simulation with every default
// spelled out, so the replay sees exactly what the server computes.
func (g *generator) clockConfig() service.SimulateConfig {
	c := service.SimulateConfig{
		Mode: "clock", Tree: []string{"htree", "spine"}[g.r.Intn(2)],
		BufferSpacing: []float64{0, 1}[g.r.Intn(2)],
		Regime:        "nominal", Trials: 1, Seed: 1 + g.r.Int63n(1000),
		Params: service.ClockParamsSpec{M: 1, Eps: round(0.05+0.15*g.r.Float64(), 4)},
	}
	if g.r.Intn(2) == 0 {
		c.Regime, c.Trials = "random", 1+g.r.Intn(8)
	}
	return c
}
