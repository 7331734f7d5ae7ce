// Package obs is the repository's observability layer: context-
// propagated hierarchical spans over every compute engine, exported as
// Chrome trace_event JSON (chrome://tracing, Perfetto) and summarized
// into run manifests, plus a dependency-free Prometheus text-exposition
// writer and parser for the serving stack.
//
// The design constraint is that instrumentation must cost nothing when
// tracing is off: Start on a context without a tracer returns a nil
// *Span without allocating, and every *Span method is nil-safe, so
// engine code calls
//
//	ctx, span := obs.Start(ctx, "skew.montecarlo", obs.Int("trials", n))
//	defer span.End()
//
// unconditionally. Experiment output stays byte-identical because spans
// never touch the engines' RNG streams or result values — they only
// record wall-clock timing on the side.
package obs

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// AttrKind discriminates Attr payloads without interface boxing (an
// interface-valued attribute would allocate on every call even with
// tracing disabled).
type attrKind uint8

const (
	attrString attrKind = iota
	attrInt
	attrFloat
)

// Attr is one key/value span annotation.
type Attr struct {
	Key  string
	kind attrKind
	s    string
	i    int64
	f    float64
}

// String builds a string-valued attribute.
func String(key, value string) Attr { return Attr{Key: key, kind: attrString, s: value} }

// Int builds an integer-valued attribute.
func Int(key string, value int64) Attr { return Attr{Key: key, kind: attrInt, i: value} }

// Float builds a float-valued attribute.
func Float(key string, value float64) Attr { return Attr{Key: key, kind: attrFloat, f: value} }

// Value returns the attribute's payload as a JSON-encodable value.
func (a Attr) Value() any {
	switch a.kind {
	case attrInt:
		return a.i
	case attrFloat:
		return a.f
	}
	return a.s
}

// Span is one timed region of work. A nil *Span (tracing disabled) is
// valid: every method is a no-op.
type Span struct {
	tracer  *Tracer
	name    string
	id      int64
	parent  int64
	remote  bool // parent is a span in another process
	traceID string
	track   int64
	start   time.Time // carries the monotonic clock
	attrs   []Attr
}

// spanRecord is a finished span as stored by the tracer.
type spanRecord struct {
	name       string
	id, parent int64
	remote     bool
	traceID    string
	track      int64
	start      time.Time
	dur        time.Duration
	attrs      []Attr
}

// Tracer collects finished spans. It is safe for concurrent use; one
// tracer serves a whole process run (an experiments invocation, a syncd
// instance).
type Tracer struct {
	epoch time.Time

	nextID    atomic.Int64
	nextTrack atomic.Int64

	// noRetain, when set, stops the tracer from accumulating finished
	// spans for export — the mode of an always-on flight-recorder tracer,
	// whose memory must stay bounded over an arbitrarily long daemon run.
	noRetain atomic.Bool
	// flight, when set, receives every finished span into its bounded
	// ring (and captures slow/error span trees) regardless of noRetain.
	flight atomic.Pointer[FlightRecorder]

	mu     sync.Mutex
	spans  []spanRecord
	tracks []trackRecord
}

type trackRecord struct {
	id   int64
	name string
}

// NewTracer returns an empty tracer whose trace timestamps are relative
// to now.
func NewTracer() *Tracer {
	t := &Tracer{epoch: time.Now()}
	t.newTrack("main") // track 0
	return t
}

// newTrack allocates a display track (a trace_event "thread").
func (t *Tracer) newTrack(name string) int64 {
	id := t.nextTrack.Add(1) - 1
	t.mu.Lock()
	t.tracks = append(t.tracks, trackRecord{id: id, name: name})
	t.mu.Unlock()
	return id
}

type tracerKey struct{}
type spanKey struct{}
type trackKey struct{}

// WithTracer returns a context that records spans into t. A nil t
// returns ctx unchanged (tracing stays disabled).
func WithTracer(ctx context.Context, t *Tracer) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, tracerKey{}, t)
}

// FromContext returns the context's tracer, or nil when tracing is
// disabled.
func FromContext(ctx context.Context) *Tracer {
	t, _ := ctx.Value(tracerKey{}).(*Tracer)
	return t
}

// WorkerContext returns a context whose spans render on a fresh display
// track named name — worker pools give each worker its own lane so
// concurrent task spans do not overlap in the trace viewer. Parent/child
// structure is unaffected. With tracing disabled it returns ctx
// unchanged.
func WorkerContext(ctx context.Context, name string) context.Context {
	t := FromContext(ctx)
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, trackKey{}, t.newTrack(name))
}

// Start begins a span named name under ctx's current span and returns
// the child context carrying it. When ctx has no tracer it returns
// (ctx, nil) without allocating; the nil span's End is a no-op.
func Start(ctx context.Context, name string, attrs ...Attr) (context.Context, *Span) {
	t := FromContext(ctx)
	if t == nil {
		return ctx, nil
	}
	s := &Span{
		tracer: t,
		name:   name,
		id:     t.nextID.Add(1),
		start:  time.Now(),
	}
	if parent, ok := ctx.Value(spanKey{}).(*Span); ok {
		s.parent = parent.id
		s.track = parent.track
		s.traceID = parent.traceID
	} else if rp, ok := ctx.Value(remoteParentKey{}).(SpanContext); ok && rp.Valid() {
		// A request forwarded from another node: parent under the remote
		// span and join its trace, so merged per-node files reassemble
		// one causal story.
		s.parent = rp.SpanID
		s.remote = true
		s.traceID = rp.TraceID
		s.track = t.newTrack(name)
	} else {
		// Top-level spans each get their own track so concurrent
		// requests / experiments render side by side, and a fresh trace
		// ID — the identity every descendant (local or remote) shares.
		s.track = t.newTrack(name)
		s.traceID = newTraceID()
	}
	if tr, ok := ctx.Value(trackKey{}).(int64); ok {
		s.track = tr
	}
	if len(attrs) > 0 {
		s.attrs = append(s.attrs, attrs...)
	}
	return context.WithValue(ctx, spanKey{}, s), s
}

// Annotate appends attributes to the span. Nil-safe.
func (s *Span) Annotate(attrs ...Attr) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, attrs...)
}

// End finishes the span and records it with its tracer. Nil-safe. End
// must be called exactly once per started span.
func (s *Span) End() {
	if s == nil {
		return
	}
	rec := spanRecord{
		name:    s.name,
		id:      s.id,
		parent:  s.parent,
		remote:  s.remote,
		traceID: s.traceID,
		track:   s.track,
		start:   s.start,
		dur:     time.Since(s.start),
		attrs:   s.attrs,
	}
	if !s.tracer.noRetain.Load() {
		s.tracer.mu.Lock()
		s.tracer.spans = append(s.tracer.spans, rec)
		s.tracer.mu.Unlock()
	}
	if fr := s.tracer.flight.Load(); fr != nil {
		fr.record(rec)
	}
}

// SetRetain controls whether finished spans accumulate for export
// (WriteTrace, Summary). On by default; a long-lived daemon whose
// tracer exists only to feed a flight recorder turns it off so memory
// stays bounded.
func (t *Tracer) SetRetain(on bool) { t.noRetain.Store(!on) }

// SetFlight attaches fr to receive every finished span. A nil fr
// detaches.
func (t *Tracer) SetFlight(fr *FlightRecorder) { t.flight.Store(fr) }

// Len returns how many spans have finished.
func (t *Tracer) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// SpanStat aggregates all finished spans sharing one name.
type SpanStat struct {
	Name        string  `json:"name"`
	Count       int     `json:"count"`
	TotalSecond float64 `json:"total_s"`
	MaxSecond   float64 `json:"max_s"`
}

// Summary aggregates finished spans by name, sorted by descending total
// time — the digest run manifests embed.
func (t *Tracer) Summary() []SpanStat {
	t.mu.Lock()
	byName := make(map[string]*SpanStat)
	for _, s := range t.spans {
		st, ok := byName[s.name]
		if !ok {
			st = &SpanStat{Name: s.name}
			byName[s.name] = st
		}
		st.Count++
		sec := s.dur.Seconds()
		st.TotalSecond += sec
		if sec > st.MaxSecond {
			st.MaxSecond = sec
		}
	}
	t.mu.Unlock()
	out := make([]SpanStat, 0, len(byName))
	for _, st := range byName {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].TotalSecond != out[j].TotalSecond {
			return out[i].TotalSecond > out[j].TotalSecond
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// String renders a brief human-readable digest (top spans by total
// time), handy for log lines.
func (t *Tracer) String() string {
	stats := t.Summary()
	if len(stats) > 4 {
		stats = stats[:4]
	}
	b := []byte("obs:")
	for _, s := range stats {
		b = append(b, fmt.Sprintf(" %s=%d/%.3fs", s.Name, s.Count, s.TotalSecond)...)
	}
	return string(b)
}
