package obs

import (
	"strings"
	"sync"
	"time"
)

// The flight recorder is the always-on half of the tracing story: a
// bounded ring of the last N completed spans plus a threshold-triggered
// capture of full span trees for slow or failed top-level spans. It
// costs one short critical section per finished span and a fixed amount
// of memory, so a daemon can run it permanently and answer "what did
// that p99 outlier actually do?" after the fact, with no pre-enabled
// trace export.

// FlightSpan is one completed span as the recorder stores and serves
// it.
type FlightSpan struct {
	TraceID      string         `json:"trace_id,omitempty"`
	SpanID       int64          `json:"span_id"`
	ParentSpanID int64          `json:"parent_span_id,omitempty"`
	RemoteParent bool           `json:"remote_parent,omitempty"`
	Name         string         `json:"name"`
	Start        time.Time      `json:"start"`
	DurMS        float64        `json:"dur_ms"`
	Attrs        map[string]any `json:"attrs,omitempty"`
}

// FlightCapture is one slow/error dump: the complete recorded span tree
// of a top-level span that crossed the slow threshold or ended with an
// error attribute.
type FlightCapture struct {
	TraceID string       `json:"trace_id"`
	Root    string       `json:"root"`
	Reason  string       `json:"reason"` // "slow" or "error"
	DurMS   float64      `json:"dur_ms"`
	Time    time.Time    `json:"time"`
	Spans   []FlightSpan `json:"spans"`
}

// FlightSnapshot is the recorder's point-in-time view, the body of
// GET /debug/flightrecorder.
type FlightSnapshot struct {
	CapacitySpans int             `json:"capacity_spans"`
	SlowMS        float64         `json:"slow_threshold_ms"`
	Recorded      int64           `json:"spans_recorded"`
	Captures      []FlightCapture `json:"captures,omitempty"`
	Spans         []FlightSpan    `json:"recent_spans,omitempty"`
}

const (
	// DefaultFlightSpans is the default ring capacity.
	DefaultFlightSpans = 512
	// DefaultFlightSlow is the default slow-capture threshold.
	DefaultFlightSlow = 250 * time.Millisecond
	// flightCaptures bounds how many slow/error dumps are retained.
	flightCaptures = 32
)

// FlightRecorder keeps the last spans completed spans and captures the
// span trees of slow or failed requests. Safe for concurrent use.
type FlightRecorder struct {
	slow time.Duration

	mu       sync.Mutex
	ring     []spanRecord // capacity fixed at construction
	next     int
	full     bool
	recorded int64
	captures []FlightCapture // ring, oldest first up to flightCaptures
}

// NewFlightRecorder builds a recorder retaining the last spans spans
// and capturing top-level spans slower than slow (or carrying an
// "error" attribute). spans <= 0 takes DefaultFlightSpans; slow <= 0
// takes DefaultFlightSlow.
func NewFlightRecorder(spans int, slow time.Duration) *FlightRecorder {
	if spans <= 0 {
		spans = DefaultFlightSpans
	}
	if slow <= 0 {
		slow = DefaultFlightSlow
	}
	return &FlightRecorder{slow: slow, ring: make([]spanRecord, 0, spans)}
}

// record stores one finished span and, for a slow or failed top-level
// span, captures its full tree from the ring (children End before their
// parent, so by the time the root lands they are already recorded).
func (f *FlightRecorder) record(rec spanRecord) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.ring) < cap(f.ring) {
		f.ring = append(f.ring, rec)
	} else {
		f.ring[f.next] = rec
		f.next = (f.next + 1) % cap(f.ring)
		f.full = true
	}
	f.recorded++
	if rec.parent != 0 && !rec.remote {
		return // only local roots trigger captures
	}
	reason := ""
	switch {
	case spanHasError(rec):
		reason = "error"
	case rec.dur >= f.slow:
		reason = "slow"
	default:
		return
	}
	c := FlightCapture{
		TraceID: rec.traceID,
		Root:    rec.name,
		Reason:  reason,
		DurMS:   durMS(rec.dur),
		Time:    rec.start.UTC(),
		Spans:   f.traceSpansLocked(rec.traceID),
	}
	f.captures = append(f.captures, c)
	if len(f.captures) > flightCaptures {
		f.captures = f.captures[len(f.captures)-flightCaptures:]
	}
}

func spanHasError(rec spanRecord) bool {
	for _, a := range rec.attrs {
		if a.Key == "error" {
			return true
		}
	}
	return false
}

// traceSpansLocked collects every ring span of one trace, in recording
// order (parents recorded after their children, since End is deferred).
func (f *FlightRecorder) traceSpansLocked(traceID string) []FlightSpan {
	if traceID == "" {
		return nil
	}
	var out []FlightSpan
	f.eachLocked(func(rec spanRecord) {
		if rec.traceID == traceID {
			out = append(out, flightSpan(rec))
		}
	})
	return out
}

// eachLocked visits the ring oldest-first.
func (f *FlightRecorder) eachLocked(fn func(spanRecord)) {
	if f.full {
		for i := f.next; i < len(f.ring); i++ {
			fn(f.ring[i])
		}
		for i := 0; i < f.next; i++ {
			fn(f.ring[i])
		}
		return
	}
	for i := 0; i < len(f.ring); i++ {
		fn(f.ring[i])
	}
}

func flightSpan(rec spanRecord) FlightSpan {
	fs := FlightSpan{
		TraceID:      rec.traceID,
		SpanID:       rec.id,
		ParentSpanID: rec.parent,
		RemoteParent: rec.remote,
		Name:         rec.name,
		Start:        rec.start.UTC(),
		DurMS:        durMS(rec.dur),
	}
	if len(rec.attrs) > 0 {
		fs.Attrs = make(map[string]any, len(rec.attrs))
		for _, a := range rec.attrs {
			fs.Attrs[a.Key] = a.Value()
		}
	}
	return fs
}

func durMS(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// Snapshot returns the recorder's current state. With traceID
// non-empty, Spans holds only that trace's spans; with matchAttr
// non-empty ("key=value"), only spans carrying that attribute — the
// hooks that make dumps greppable by request ID.
func (f *FlightRecorder) Snapshot(traceID, matchAttr string) FlightSnapshot {
	f.mu.Lock()
	defer f.mu.Unlock()
	snap := FlightSnapshot{
		CapacitySpans: cap(f.ring),
		SlowMS:        durMS(f.slow),
		Recorded:      f.recorded,
		Captures:      append([]FlightCapture(nil), f.captures...),
	}
	key, val, hasAttr := strings.Cut(matchAttr, "=")
	f.eachLocked(func(rec spanRecord) {
		if traceID != "" && rec.traceID != traceID {
			return
		}
		if matchAttr != "" {
			found := false
			for _, a := range rec.attrs {
				if a.Key == key && (!hasAttr || attrText(a) == val) {
					found = true
					break
				}
			}
			if !found {
				return
			}
		}
		snap.Spans = append(snap.Spans, flightSpan(rec))
	})
	return snap
}

func attrText(a Attr) string {
	switch v := a.Value().(type) {
	case string:
		return v
	default:
		return ""
	}
}
