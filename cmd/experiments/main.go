// Command experiments regenerates the paper-reproduction experiment
// suite (DESIGN.md §4) and prints each experiment's table, claim, and
// measured finding.
//
// Experiments run concurrently on a bounded worker pool (-parallel, one
// worker per CPU by default). Every generator is seeded per task, so
// the tables are byte-identical at any parallelism — only wall time
// changes; a per-experiment timing summary goes to stderr (-metrics).
// A failing experiment costs only its own slot: everything that
// completed is still printed before the command exits non-zero.
//
// Observability rides on the side and never touches the tables: -trace
// writes the run's span tree as Chrome trace_event JSON (load it in
// chrome://tracing or Perfetto), and -manifest writes a per-run
// provenance record (flags, git describe, per-experiment wall time,
// span summary).
//
// Usage:
//
//	experiments [-quick] [-format text|markdown|csv] [-run E4]
//	            [-parallel N] [-timeout 5m] [-metrics=false]
//	            [-trace out.json] [-manifest run.json]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	vlsisync "repro"
	"repro/internal/obs"
)

func main() {
	quick := flag.Bool("quick", false, "use reduced sweeps (faster, same shapes)")
	format := flag.String("format", "text", "output format: text, markdown, or csv")
	run := flag.String("run", "", "run a single experiment by ID (e.g. E4); default all")
	list := flag.Bool("list", false, "list experiment IDs and exit")
	out := flag.String("out", "", "write output to a file instead of stdout")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0),
		"max concurrent experiments and inner sweep fan-out (1 = sequential; output is identical either way)")
	timeout := flag.Duration("timeout", 0,
		"overall deadline for the run, e.g. 5m (0 = none); unfinished experiments are reported as errors")
	metrics := flag.Bool("metrics", true, "print per-experiment wall-time metrics to stderr")
	tracePath := flag.String("trace", "", "write the run's spans as Chrome trace_event JSON to this file")
	manifestPath := flag.String("manifest", "", "write a per-run provenance manifest (JSON) to this file")
	flag.Parse()

	start := time.Now()
	var tracer *obs.Tracer
	if *tracePath != "" || *manifestPath != "" {
		tracer = obs.NewTracer()
	}

	if *list {
		for _, id := range vlsisync.ExperimentIDs() {
			fmt.Println(id)
		}
		return
	}
	dest := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fail(err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				fail(err)
			}
		}()
		dest = f
	}

	var results []*vlsisync.ExperimentResult
	var ms []vlsisync.RunMetric
	var runErr error
	if *run != "" {
		ctx := obs.WithTracer(context.Background(), tracer)
		t0 := time.Now()
		r, err := vlsisync.RunExperimentCtx(ctx, *run, *quick)
		if err != nil {
			fail(err)
		}
		ms = append(ms, vlsisync.RunMetric{ID: r.ID, Wall: time.Since(t0), Rows: r.Table.NumRows(), Pass: r.Pass})
		results = append(results, r)
	} else {
		results, ms, runErr = vlsisync.RunExperiments(context.Background(), vlsisync.RunOptions{
			Quick:    *quick,
			Parallel: *parallel,
			Timeout:  *timeout,
			Tracer:   tracer,
		})
		// Metrics carry measured wall times, so they go to stderr: the
		// deterministic experiment tables on stdout (or -out) stay
		// byte-identical across runs and parallelism settings.
		if *metrics {
			if err := vlsisync.MetricsTable(ms).Render(os.Stderr); err != nil {
				fail(err)
			}
		}
	}
	writeObservability(tracer, *tracePath, *manifestPath, start, ms)

	if err := vlsisync.WriteResults(dest, results, *format); err != nil {
		fail(err)
	}
	failures := 0
	for _, r := range results {
		if !r.Pass {
			failures++
		}
	}
	if runErr != nil {
		fmt.Fprintf(os.Stderr, "experiments: %d of %d completed; failures:\n%v\n",
			len(results), len(vlsisync.ExperimentIDs()), runErr)
		os.Exit(1)
	}
	if failures > 0 {
		fail(fmt.Errorf("%d experiment(s) failed", failures))
	}
}

// writeObservability emits the side-channel artifacts: the trace_event
// file and the run manifest. Failures are fatal — a requested artifact
// that cannot be written should not pass silently.
func writeObservability(tracer *obs.Tracer, tracePath, manifestPath string, start time.Time, ms []vlsisync.RunMetric) {
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			fail(err)
		}
		if err := tracer.WriteTrace(f); err != nil {
			f.Close()
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
	}
	if manifestPath == "" {
		return
	}
	man := obs.NewManifest(start)
	man.VisitFlags(func(record func(name, value string)) {
		flag.CommandLine.Visit(func(fl *flag.Flag) { record(fl.Name, fl.Value.String()) })
	})
	for _, m := range ms {
		et := obs.ExperimentTiming{ID: m.ID, WallSeconds: m.Wall.Seconds(), Rows: m.Rows, Pass: m.Pass}
		if m.Err != nil {
			et.Error = m.Err.Error()
		}
		man.Experiments = append(man.Experiments, et)
	}
	man.Finish(tracer)
	if err := man.WriteFile(manifestPath); err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
