// Command syncbench is the end-to-end and per-layer benchmark of syncd.
//
// It starts the unmodified syncd binary as a child process (default
// flags, loopback listen address only), drives one named workload at it
// from at most two connections, checks every answer against an
// in-process traced replay of the same requests through the engines'
// public functions, and prints one JSON result line last:
//
//	syncbench -syncd PATH --workload NAME --seed N --seconds S --trace 0|1
//
// With --trace 0 the result carries the end-to-end metrics, with
// --trace 1 the replay's per-layer metrics (and a markdown breakdown is
// printed before it). Run it through run.sh, which builds both binaries
// inside the checkout. Seed 1 is the default seed and seed 2 the
// held-out seed.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// setupReps is how many times each run starts syncd (and refills its
// warm kernels); setup_s is the median. Starts are setupPause apart:
// back to back, each start rides on the CPU and cache state the one
// before left, and the starts of a run all land in the same spell of
// host speed. Paused, each starts from a quiet host, as a deployment
// does, and the run samples several spells.
const (
	setupReps  = 11
	setupPause = 100 * time.Millisecond
)

// openTailWindows is how many consecutive windows the open loop's timed
// phase is split into for its tail latency percentiles.
const openTailWindows = 3

// maxLateP99 is how late the open loop may run its schedule at the 99th
// percentile of all its timed sends before the run is refused as a
// generator failure.
const maxLateP99 = 100 * time.Millisecond

func main() {
	workload := flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := flag.Int64("seed", 1, "workload seed (1 is the default seed, 2 the held-out seed)")
	secs := flag.Int("seconds", 5, "approximate length of the timed phase")
	trace := flag.Int("trace", 0, "0 reports end-to-end metrics, 1 the traced replay's per-layer metrics")
	bin := flag.String("syncd", "", "path to the syncd binary")
	flag.Parse()
	if *bin == "" || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	// The generator shares the host with syncd; collecting its small
	// heap less often keeps its CPU out of syncd's way.
	debug.SetGCPercent(400)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := run(ctx, *bin, *workload, *seed, *secs, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "syncbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "syncbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// Report is the full record of one run, printed before the result line.
type Report struct {
	Workload    string           `json:"workload"`
	Seed        int64            `json:"seed"`
	Seconds     int              `json:"seconds"`
	Meta        Meta             `json:"meta"`
	Attempted   int              `json:"attempted"`
	Failed      int              `json:"failed"`
	FailedShare float64          `json:"failed_share"`
	EndToEnd    map[string]Value `json:"end_to_end"`
	PerLayer    map[string]Value `json:"per_layer,omitempty"` // traced runs only
}

func run(ctx context.Context, bin, name string, seed int64, secs int, traced bool) (*Result, error) {
	w, err := Generate(name, seed, secs)
	if err != nil {
		return nil, err
	}
	meta, err := collectMeta()
	if err != nil {
		return nil, err
	}

	// Setup: start syncd (and fill its warm kernels) setupReps times,
	// keeping the last server for the timed phase.
	var setups []float64
	var srv *server
	var fill []Outcome
	for rep := 0; rep < setupReps; rep++ {
		s, up, err := startServer(ctx, bin)
		if err != nil {
			return nil, err
		}
		t := time.Now()
		fill = sendFill(ctx, s.base, w)
		setups = append(setups, (up + time.Since(t)).Seconds())
		if rep < setupReps-1 {
			s.stop()
			time.Sleep(setupPause)
		} else {
			srv = s
		}
	}

	// Timed phase.
	var cpu0 time.Duration
	var c0 serverCounters
	var startErr error
	before := func() {
		c0, startErr = scrape(ctx, srv.base)
		if startErr == nil {
			cpu0, startErr = srv.cpuTime()
		}
	}
	var outs []Outcome
	var wall time.Duration
	if w.Open {
		outs, wall = runOpen(ctx, srv.base, w, 2, before)
	} else {
		outs, wall = runClosed(ctx, srv.base, w, before)
	}
	cpu1, err := srv.cpuTime()
	if err == nil {
		err = startErr
	}
	c1, err2 := scrape(ctx, srv.base)
	rss, err3 := srv.peakRSS()
	srv.stop()
	for _, e := range []error{err, err2, err3, ctx.Err()} {
		if e != nil {
			return nil, e
		}
	}

	// The replay's heap grows as large as syncd's: collect it at the
	// default pace, not the generator's.
	debug.SetGCPercent(100)

	// Replay: the reference answers, and on a traced run the per-layer
	// costs. An untraced run only needs the answers, and computes them on
	// every core at once.
	var rp *replayer
	var reps []itemReplay
	if traced {
		rp = newReplayer(runtime.NumCPU(), kernelCacheEntries)
		reps, err = rp.Run(ctx, w, distinctItems(w))
	} else {
		reps, err = replayAnswers(ctx, w, runtime.NumCPU())
	}
	if err != nil {
		return nil, err
	}
	want := make(map[int]string, len(reps))
	for _, r := range reps {
		want[r.item] = r.key
	}
	attempted, failed := 0, 0
	check := func(o *Outcome) {
		attempted++
		got, err := servedKey(w.Items[o.Item], o)
		if err == nil && got != want[o.Item] {
			err = fmt.Errorf("answer differs from the replay:\n  served %s\n  replay %s", got, want[o.Item])
		}
		if err != nil {
			failed++
			if failed <= 5 {
				it := w.Items[o.Item]
				fmt.Fprintf(os.Stderr, "syncbench: FAILED %s %s %s: %v\n", it.Method, it.Path, it.Body, err)
			}
		}
	}
	for i := range fill {
		check(&fill[i])
	}
	for i := range outs {
		check(&outs[i])
	}

	e2e, late, err := endToEndMetrics(w, outs, wall, setups, cpu1-cpu0, rss)
	if err != nil {
		return nil, err
	}
	rep := Report{
		Workload: name, Seed: seed, Seconds: secs, Meta: meta,
		Attempted: attempted, Failed: failed, FailedShare: ratio(float64(failed), float64(attempted)),
		EndToEnd: e2e,
	}
	if traced {
		var rows []breakdownRow
		rep.PerLayer, rows, err = layerMetrics(rp, reps, outs, c0, c1, late)
		if err != nil {
			return nil, err
		}
		fmt.Print(markdownBreakdown(name, rows, len(reps)))
		fmt.Println(kernelMemory(rp.kernels))
	}
	b, err := json.Marshal(rep)
	if err != nil {
		return nil, err
	}
	fmt.Println(string(b))
	if w.Open && late > maxLateP99 {
		return nil, fmt.Errorf("generator fell behind its schedule: p99 lateness %v exceeds %v", late, maxLateP99)
	}

	defs, all := endToEnd, e2e
	if traced {
		defs, all = perLayer, rep.PerLayer
	}
	metrics, err := strip(defs, all)
	if err != nil {
		return nil, err
	}
	return &Result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: metrics}, nil
}

// sendFill sends the workload's setup requests in order from one client.
func sendFill(ctx context.Context, base string, w *Workload) []Outcome {
	c := dial(ctx, base)
	defer c.close()
	out := make([]Outcome, len(w.Fill))
	for i, idx := range w.Fill {
		out[i].Item = idx
		c.send(w.Items[idx], &out[i])
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// endToEndMetrics reduces the timed outcomes to the client-visible
// metrics. It also returns the open loop's p99 lateness.
func endToEndMetrics(w *Workload, outs []Outcome, wall time.Duration, setups []float64, cpu time.Duration, rss int64) (map[string]Value, time.Duration, error) {
	// latency_p50_ms is the median over the answers syncd computed:
	// every request of a closed loop, and the result-cache misses and
	// jobs of the open loop. A cache hit's few tenths of a millisecond
	// are mostly wake-ups, whose cost on this VM switches between about
	// 0.15 and 0.3 ms from run to run with the hypervisor's idle
	// handling; the all-request median sat on the hits and followed it.
	var timed []Outcome
	var lat, computed, late []float64
	for _, o := range outs {
		if !o.Timed {
			continue
		}
		timed = append(timed, o)
		late = append(late, ms(o.Late))
		if o.Err == nil {
			lat = append(lat, ms(o.Latency))
			if o.Cache != "hit" {
				computed = append(computed, ms(o.Latency))
			}
		}
	}
	// A run's p50, and a closed loop's throughput, are the median over
	// timedWindows consecutive windows of the timed phase (on a closed
	// loop each of equal work: the generator stratifies every window). A
	// spell of slow host that covers less than half the run moves
	// neither. A closed loop's tail percentile pools all samples, as a
	// window's few dozen cannot support it. The open loop's tail
	// percentiles are the median over openTailWindows windows: a host
	// stall queues every request scheduled behind it, and one such
	// episode must not set the whole run's tail.
	n := len(lat)
	tailWindows := 1
	loop := fmt.Sprintf("closed loop, 1 client; p50 and throughput: median of %d windows", timedWindows)
	rps := float64(n) / wall.Seconds()
	if w.Open {
		tailWindows = openTailWindows
		loop = fmt.Sprintf("open loop, %.0f/s on 2 connections, timed from the scheduled send less the generator's own wake-up delay; p50: median of %d windows, tails: of %d", w.Rate, timedWindows, openTailWindows)
	} else {
		rps = median(windowThroughputs(timed, timedWindows))
	}
	if tailPercentile(n/tailWindows) == 0 {
		return nil, 0, fmt.Errorf("%d timed samples in %d windows cannot support a p90 with %d beyond it", n, tailWindows, minBeyond)
	}
	p50, err := windowedPercentile(computed, 50, timedWindows)
	if err != nil {
		return nil, 0, err
	}
	pct := map[string]float64{"latency_p50_ms": p50}
	if w.Open {
		if pct["latency_all_p50_ms"], err = windowedPercentile(lat, 50, timedWindows); err != nil {
			return nil, 0, err
		}
	}
	for _, p := range []float64{90, 99} {
		if p > tailPercentile(n/tailWindows) {
			break
		}
		v, err := windowedPercentile(lat, p, tailWindows)
		if err != nil {
			return nil, 0, err
		}
		pct[fmt.Sprintf("latency_p%g_ms", p)] = v
	}
	// Lateness pools every timed send: falling behind in any part of
	// the run must show.
	var lateP99 time.Duration
	if w.Open {
		v, err := percentile(late, 99)
		if err != nil {
			return nil, 0, err
		}
		lateP99 = time.Duration(v * float64(time.Millisecond))
	}
	m := map[string]Value{
		"setup_s":        {Value: median(setups), Unit: "s", Samples: len(setups), Note: "median exec→/healthz 200 (+ warm fill)"},
		"throughput_rps": {Value: rps, Unit: "1/s", Samples: n, Note: loop},
		"cpu_ms_per_req": {Value: ms(cpu) / float64(n), Unit: "ms", Samples: n, Note: "syncd user+sys CPU over the timed phase"},
		"peak_rss_mb":    {Value: float64(rss) / 1e6, Unit: "MB", Samples: 1, Note: "syncd VmHWM"},
	}
	for name, v := range pct {
		m[name] = Value{Value: v, Unit: "ms", Samples: n, Note: loop}
	}
	if w.Open {
		m["latency_p50_ms"] = Value{Value: p50, Unit: "ms", Samples: len(computed), Note: loop + "; result-cache misses and jobs only"}
	}
	return m, lateP99, nil
}

// windowThroughputs splits a closed loop's timed outcomes (in send
// order) into k consecutive equal parts and returns each part's
// completed requests per wall second, from its first send to its last
// answer.
func windowThroughputs(timed []Outcome, k int) []float64 {
	per := make([]float64, k)
	for i := range per {
		win := timed[i*len(timed)/k : (i+1)*len(timed)/k]
		ok := 0
		for _, o := range win {
			if o.Err == nil {
				ok++
			}
		}
		last := win[len(win)-1]
		per[i] = float64(ok) / last.Sent.Add(last.Latency).Sub(win[0].Sent).Seconds()
	}
	return per
}

// layerMetrics reduces the replay's spans, syncd's counter deltas and
// the served outcomes to the per-layer metrics and the breakdown rows.
func layerMetrics(rp *replayer, reps []itemReplay, outs []Outcome, c0, c1 serverCounters, late time.Duration) (map[string]Value, []breakdownRow, error) {
	spans, err := rp.spans()
	if err != nil {
		return nil, nil, err
	}
	// Root spans appear in replay order, one per distinct request.
	var roots []int
	for i, s := range spans {
		if s.root == i {
			roots = append(roots, i)
		}
	}
	if len(roots) != len(reps) {
		return nil, nil, fmt.Errorf("trace holds %d replay roots for %d requests", len(roots), len(reps))
	}
	rootItem := make(map[int]int, len(roots))
	for k, i := range roots {
		rootItem[i] = k
	}

	n := float64(len(reps))
	incl := map[string]float64{}
	mb := map[string]float64{}
	self := map[string]*breakdownRow{}
	totals := make([]float64, len(reps))
	var unattributed float64
	for i, s := range spans {
		if s.root == i {
			k := rootItem[i]
			over := ms(reps[k].overhead)
			totals[k] = ms(s.incl) - over
			unattributed += max(ms(s.self)-over, 0)
			continue
		}
		if l, ok := layerOfSpan[s.name]; ok {
			incl[l] += ms(s.incl)
			mb[l] += float64(s.bytes) / 1e6
		}
		// Breakdown rows partition each root: the benchmark's spans by
		// inclusive time, except the planner call, which is split into
		// the self times of the planner's own spans.
		switch {
		case s.depth == 1 && s.name == "core.newplan":
			row := rowOf(self, "core.plan")
			row.mb += float64(s.bytes) / 1e6
			row.hasBytes = true
		case s.depth == 1:
			row := rowOf(self, s.name)
			row.ms += ms(s.incl)
			row.mb += float64(s.bytes) / 1e6
			row.hasBytes = true
		case spans[s.top].name == "core.newplan":
			rowOf(self, s.name).ms += ms(s.self)
		}
	}
	rows := make([]breakdownRow, 0, len(self)+1)
	for _, r := range self {
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].ms > rows[j].ms })
	rows = append(rows, breakdownRow{name: "replay.unattributed", ms: unattributed})

	m := map[string]Value{}
	for _, d := range perLayer {
		if base, ok := strings.CutSuffix(d.Name, "_ms"); ok {
			m[d.Name] = Value{Value: incl[base] / n, Unit: "ms", Samples: len(reps)}
		}
	}
	m["core.self_ms"] = Value{Value: selfOf(self, "core.plan") / n, Unit: "ms", Samples: len(reps)}
	m["replay.unattributed_ms"] = Value{Value: unattributed / n, Unit: "ms", Samples: len(reps)}
	m["comm.build_mb"] = Value{Value: mb["comm.build"] / n, Unit: "MB", Samples: len(reps)}
	m["clocktree.build_mb"] = Value{Value: mb["clocktree.build"] / n, Unit: "MB", Samples: len(reps)}

	var pairs, foot, kept []float64
	for _, k := range rp.kernels {
		pairs = append(pairs, float64(k.pairs))
		foot = append(foot, float64(k.footprint)/1e6)
		if k.retained >= 0 {
			kept = append(kept, float64(k.retained)/1e6)
		}
	}
	m["skew.pairs"] = Value{Value: mean(pairs), Unit: "count", Samples: len(pairs)}
	m["skew.kernel_footprint_mb"] = Value{Value: mean(foot), Unit: "MB", Samples: len(foot)}
	m["skew.kernel_retained_mb"] = Value{Value: mean(kept), Unit: "MB", Samples: len(kept)}

	requests := c1.Requests - c0.Requests
	m["service.result_hit_ratio"] = Value{Value: ratio(c1.Hits-c0.Hits, (c1.Hits+c1.Misses+c1.Coalesced)-(c0.Hits+c0.Misses+c0.Coalesced)), Unit: "ratio", Samples: int(requests)}
	m["service.kernel_hit_ratio"] = Value{Value: ratio(c1.KernelHits-c0.KernelHits, (c1.KernelHits+c1.KernelMisses)-(c0.KernelHits+c0.KernelMisses)), Unit: "ratio", Samples: int(c1.KernelHits + c1.KernelMisses - c0.KernelHits - c0.KernelMisses)}
	m["service.coalesced_share"] = Value{Value: ratio(c1.Coalesced-c0.Coalesced, requests), Unit: "ratio", Samples: int(requests)}

	// service.overhead_ms: the served time of each request's computing
	// (X-Cache miss) answer minus the replay's total for it.
	totalOf := make(map[int]float64, len(reps))
	for k, r := range reps {
		totalOf[r.item] = totals[k]
	}
	seen := map[int]bool{}
	var over, queue, runs []float64
	timed := 0
	for _, o := range outs {
		if o.Timed {
			timed++
		}
		if o.JobFinal != nil {
			queue = append(queue, ms(o.JobQueue))
			runs = append(runs, ms(o.JobRun))
		}
		if o.Cache != "miss" || seen[o.Item] {
			continue
		}
		seen[o.Item] = true
		over = append(over, ms(o.Service)-totalOf[o.Item])
	}
	m["service.overhead_ms"] = Value{Value: median(over), Unit: "ms", Samples: len(over), Note: "median served miss time minus replay total"}
	m["jobs.queue_ms"] = Value{Value: median(queue), Unit: "ms", Samples: len(queue)}
	m["jobs.run_ms"] = Value{Value: median(runs), Unit: "ms", Samples: len(runs)}
	m["load.late_ms_p99"] = Value{Value: ms(late), Unit: "ms", Samples: timed, Note: "p99 over every timed send"}
	return m, rows, nil
}

func rowOf(rows map[string]*breakdownRow, name string) *breakdownRow {
	r, ok := rows[name]
	if !ok {
		r = &breakdownRow{name: name}
		rows[name] = r
	}
	return r
}

func selfOf(rows map[string]*breakdownRow, name string) float64 {
	if r, ok := rows[name]; ok {
		return r.ms
	}
	return 0
}
