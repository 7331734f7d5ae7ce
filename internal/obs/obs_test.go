package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestDisabledTracingIsNilAndFree(t *testing.T) {
	ctx := context.Background()
	ctx2, span := Start(ctx, "noop", Int("n", 1))
	if span != nil {
		t.Fatalf("Start without tracer returned a span")
	}
	if ctx2 != ctx {
		t.Fatalf("Start without tracer returned a new context")
	}
	// Nil-safety of the whole span API.
	span.Annotate(String("k", "v"))
	span.End()
	if FromContext(ctx) != nil {
		t.Fatalf("tracer found in a context without one")
	}

	allocs := testing.AllocsPerRun(100, func() {
		c, s := Start(ctx, "noop", Int("n", 1), Float("x", 2), String("s", "y"))
		s.End()
		_ = c
	})
	if allocs != 0 {
		t.Fatalf("disabled Start allocates %v times per call, want 0", allocs)
	}
}

func TestSpanNestingAndSummary(t *testing.T) {
	tr := NewTracer()
	ctx := WithTracer(context.Background(), tr)

	ctx, root := Start(ctx, "experiment.E1", String("id", "E1"))
	cctx, child := Start(ctx, "skew.analyze", Int("cells", 64))
	if child.parent != root.id {
		t.Fatalf("child parent = %d, want %d", child.parent, root.id)
	}
	if child.track != root.track {
		t.Fatalf("child track = %d, want inherited %d", child.track, root.track)
	}
	_, grand := Start(cctx, "runner.map")
	grand.End()
	child.End()
	root.End()

	if tr.Len() != 3 {
		t.Fatalf("tracer recorded %d spans, want 3", tr.Len())
	}
	stats := tr.Summary()
	names := map[string]int{}
	for _, s := range stats {
		names[s.Name] = s.Count
	}
	for _, want := range []string{"experiment.E1", "skew.analyze", "runner.map"} {
		if names[want] != 1 {
			t.Fatalf("summary missing %s: %v", want, names)
		}
	}
}

func TestWorkerContextGetsFreshTrack(t *testing.T) {
	tr := NewTracer()
	ctx := WithTracer(context.Background(), tr)
	ctx, root := Start(ctx, "pool")
	wctx := WorkerContext(ctx, "worker-0")
	_, s := Start(wctx, "task")
	if s.track == root.track {
		t.Fatalf("worker span should be on a fresh track")
	}
	if s.parent != root.id {
		t.Fatalf("worker span must keep parent linkage: parent=%d want %d", s.parent, root.id)
	}
	s.End()
	root.End()
}

func TestConcurrentSpans(t *testing.T) {
	tr := NewTracer()
	ctx := WithTracer(context.Background(), tr)
	var wg sync.WaitGroup
	const goroutines = 16
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				c, s := Start(ctx, "concurrent.op", Int("i", int64(i)))
				_, inner := Start(c, "concurrent.inner")
				inner.End()
				s.Annotate(Float("f", 1.5))
				s.End()
			}
		}()
	}
	wg.Wait()
	if got, want := tr.Len(), goroutines*50*2; got != want {
		t.Fatalf("recorded %d spans, want %d", got, want)
	}
	var buf bytes.Buffer
	if err := tr.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("trace output is not valid JSON")
	}
}

func TestWriteTraceRoundTrip(t *testing.T) {
	tr := NewTracer()
	ctx := WithTracer(context.Background(), tr)
	ctx, root := Start(ctx, "experiment.E5", String("id", "E5"))
	time.Sleep(time.Millisecond)
	_, child := Start(ctx, "selftimed.rigid", Int("cells", 64))
	child.End()
	root.End()

	var buf bytes.Buffer
	if err := tr.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	doc, err := ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}
	events := doc.CompleteEvents()
	if len(events) != 2 {
		t.Fatalf("trace has %d complete events, want 2", len(events))
	}
	cats := doc.Categories()
	if strings.Join(cats, ",") != "experiment,selftimed" {
		t.Fatalf("categories = %v", cats)
	}
	// The parent event must enclose the child in time.
	var parent, ch *TraceEvent
	for i := range events {
		switch events[i].Name {
		case "experiment.E5":
			parent = &events[i]
		case "selftimed.rigid":
			ch = &events[i]
		}
	}
	if parent == nil || ch == nil {
		t.Fatalf("missing events: %+v", events)
	}
	if ch.TS < parent.TS || ch.TS+ch.Dur > parent.TS+parent.Dur+1 {
		t.Fatalf("child [%.1f, %.1f] not nested in parent [%.1f, %.1f]",
			ch.TS, ch.TS+ch.Dur, parent.TS, parent.TS+parent.Dur)
	}
	if parent.Args["id"] != "E5" {
		t.Fatalf("parent args = %v", parent.Args)
	}
}

func TestReadTraceRejectsGarbage(t *testing.T) {
	if _, err := ReadTrace(strings.NewReader("not json")); err == nil {
		t.Fatalf("ReadTrace accepted garbage")
	}
	bad := `{"traceEvents":[{"name":"x","ph":"Q","ts":1,"pid":1,"tid":1}]}`
	if _, err := ReadTrace(strings.NewReader(bad)); err == nil {
		t.Fatalf("ReadTrace accepted unknown phase")
	}
	unnamed := `{"traceEvents":[{"name":"","ph":"X","ts":1,"pid":1,"tid":1}]}`
	if _, err := ReadTrace(strings.NewReader(unnamed)); err == nil {
		t.Fatalf("ReadTrace accepted unnamed event")
	}
}

func TestManifest(t *testing.T) {
	tr := NewTracer()
	ctx := WithTracer(context.Background(), tr)
	_, s := Start(ctx, "work")
	s.End()

	m := NewManifest(time.Now().Add(-time.Second))
	m.Experiments = append(m.Experiments,
		ExperimentTiming{ID: "E2", WallSeconds: 0.5, Rows: 6, Pass: true},
		ExperimentTiming{ID: "E1", WallSeconds: 0.25, Rows: 12, Pass: true},
	)
	m.VisitFlags(func(record func(name, value string)) {
		record("quick", "true")
	})
	m.Finish(tr)

	if m.WallSeconds < 1 {
		t.Fatalf("WallSeconds = %v, want >= 1", m.WallSeconds)
	}
	if m.CPUSeconds <= 0 {
		t.Fatalf("CPUSeconds = %v, want > 0 on unix", m.CPUSeconds)
	}
	if m.Experiments[0].ID != "E1" {
		t.Fatalf("experiments not sorted: %+v", m.Experiments)
	}
	if len(m.Spans) != 1 || m.Spans[0].Name != "work" {
		t.Fatalf("spans = %+v", m.Spans)
	}
	var buf bytes.Buffer
	if err := m.Write(&buf); err != nil {
		t.Fatal(err)
	}
	var back Manifest
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("manifest does not round-trip: %v", err)
	}
	if back.Flags["quick"] != "true" || back.GoVersion == "" {
		t.Fatalf("round-tripped manifest: %+v", back)
	}
}
