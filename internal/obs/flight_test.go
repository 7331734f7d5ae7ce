package obs

import (
	"context"
	"testing"
	"time"
)

// endSpanAt force-finishes a span with a synthetic duration by moving
// its start time, so tests need no real sleeps.
func endSpanAt(s *Span, d time.Duration) {
	s.start = time.Now().Add(-d)
	s.End()
}

func TestFlightRecorderCapturesSlowTree(t *testing.T) {
	fr := NewFlightRecorder(64, 50*time.Millisecond)
	tr := NewTracer()
	tr.SetRetain(false)
	tr.SetFlight(fr)
	ctx := WithTracer(context.Background(), tr)

	// Fast request: recorded in the ring, no capture.
	fctx, fast := Start(ctx, "serve.analyze", String("request_id", "fast-1"))
	_, fc := Start(fctx, "skew.analyze")
	fc.End()
	endSpanAt(fast, time.Millisecond)

	// Slow request: child ends first (defer order), root crosses the
	// threshold → full tree capture.
	sctx, slow := Start(ctx, "serve.analyze", String("request_id", "slow-1"))
	_, sc := Start(sctx, "skew.analyze")
	endSpanAt(sc, 90*time.Millisecond)
	endSpanAt(slow, 100*time.Millisecond)

	if tr.Len() != 0 {
		t.Fatalf("noRetain tracer retained %d spans", tr.Len())
	}
	caps := fr.Snapshot("", "").Captures
	if len(caps) != 1 {
		t.Fatalf("%d captures, want 1: %+v", len(caps), caps)
	}
	c := caps[0]
	if c.Reason != "slow" || c.Root != "serve.analyze" {
		t.Fatalf("capture = %+v", c)
	}
	if c.TraceID != slow.TraceID() {
		t.Fatalf("capture trace %q, want %q", c.TraceID, slow.TraceID())
	}
	if len(c.Spans) != 2 {
		t.Fatalf("capture has %d spans, want full tree of 2: %+v", len(c.Spans), c.Spans)
	}
	// Child recorded before root; both share the trace.
	if c.Spans[0].Name != "skew.analyze" || c.Spans[1].Name != "serve.analyze" {
		t.Fatalf("capture order: %q, %q", c.Spans[0].Name, c.Spans[1].Name)
	}
	if c.Spans[0].ParentSpanID != c.Spans[1].SpanID {
		t.Fatalf("capture tree broken: child parent %d, root %d", c.Spans[0].ParentSpanID, c.Spans[1].SpanID)
	}
	if c.Spans[1].Attrs["request_id"] != "slow-1" {
		t.Fatalf("capture root attrs: %v", c.Spans[1].Attrs)
	}

	snap := fr.Snapshot("", "")
	if snap.Recorded != 4 || len(snap.Spans) != 4 {
		t.Fatalf("snapshot recorded=%d spans=%d, want 4/4", snap.Recorded, len(snap.Spans))
	}
}

func TestFlightRecorderCapturesErrors(t *testing.T) {
	fr := NewFlightRecorder(16, time.Hour) // threshold never reached
	tr := NewTracer()
	tr.SetFlight(fr)
	ctx := WithTracer(context.Background(), tr)

	_, ok := Start(ctx, "serve.analyze")
	ok.End()
	_, bad := Start(ctx, "serve.analyze")
	bad.Annotate(String("error", "peer_unreachable"))
	bad.End()

	caps := fr.Snapshot("", "").Captures
	if len(caps) != 1 || caps[0].Reason != "error" {
		t.Fatalf("captures = %+v, want one error capture", caps)
	}
}

func TestFlightRecorderRingBounds(t *testing.T) {
	fr := NewFlightRecorder(8, time.Hour)
	tr := NewTracer()
	tr.SetRetain(false)
	tr.SetFlight(fr)
	ctx := WithTracer(context.Background(), tr)
	for i := 0; i < 100; i++ {
		_, s := Start(ctx, "serve.ping", Int("i", int64(i)))
		s.End()
	}
	snap := fr.Snapshot("", "")
	if snap.Recorded != 100 {
		t.Fatalf("recorded = %d, want 100", snap.Recorded)
	}
	if len(snap.Spans) != 8 {
		t.Fatalf("ring holds %d spans, want capacity 8", len(snap.Spans))
	}
	// Oldest-first: the survivors are the last 8 observations.
	for i, fs := range snap.Spans {
		if want := int64(92 + i); fs.Attrs["i"] != want {
			t.Fatalf("span %d has i=%v, want %d", i, fs.Attrs["i"], want)
		}
	}
}

func TestFlightSnapshotFilters(t *testing.T) {
	fr := NewFlightRecorder(32, time.Hour)
	tr := NewTracer()
	tr.SetFlight(fr)
	ctx := WithTracer(context.Background(), tr)

	_, a := Start(ctx, "serve.analyze", String("request_id", "req-a"))
	a.End()
	_, b := Start(ctx, "serve.analyze", String("request_id", "req-b"))
	b.End()

	byTrace := fr.Snapshot(a.TraceID(), "")
	if len(byTrace.Spans) != 1 || byTrace.Spans[0].TraceID != a.TraceID() {
		t.Fatalf("trace filter: %+v", byTrace.Spans)
	}
	byAttr := fr.Snapshot("", "request_id=req-b")
	if len(byAttr.Spans) != 1 || byAttr.Spans[0].Attrs["request_id"] != "req-b" {
		t.Fatalf("attr filter: %+v", byAttr.Spans)
	}
	byKey := fr.Snapshot("", "request_id")
	if len(byKey.Spans) != 2 {
		t.Fatalf("key-only filter matched %d, want 2", len(byKey.Spans))
	}
	none := fr.Snapshot("", "request_id=missing")
	if len(none.Spans) != 0 {
		t.Fatalf("filter for absent value matched %d", len(none.Spans))
	}
}

func TestFlightRecorderRemoteRootTriggersCapture(t *testing.T) {
	// On a peer node the top-level local span has a remote parent; it
	// must still be treated as a capture root.
	fr := NewFlightRecorder(16, 10*time.Millisecond)
	tr := NewTracer()
	tr.SetFlight(fr)
	ctx := WithTracer(context.Background(), tr)
	ctx = WithRemoteParent(ctx, SpanContext{TraceID: "00000000deadbeef", SpanID: 3})
	_, s := Start(ctx, "serve.analyze")
	endSpanAt(s, 50*time.Millisecond)
	caps := fr.Snapshot("", "").Captures
	if len(caps) != 1 || caps[0].TraceID != "00000000deadbeef" {
		t.Fatalf("captures = %+v", caps)
	}
}

func TestManifestEmbedsFlightSnapshot(t *testing.T) {
	fr := NewFlightRecorder(4, time.Hour)
	tr := NewTracer()
	tr.SetFlight(fr)
	ctx := WithTracer(context.Background(), tr)
	_, s := Start(ctx, "serve.ping")
	s.End()

	m := NewManifest(time.Now())
	snap := fr.Snapshot("", "")
	m.Flight = &snap
	m.Finish(tr)
	if m.Flight == nil || m.Flight.Recorded != 1 {
		t.Fatalf("manifest flight = %+v", m.Flight)
	}
}
