package stats

import (
	"math"
	"sort"
	"testing"
)

func TestLogSketchEmptyAndEdge(t *testing.T) {
	var s LogSketch
	if s.count != 0 || s.Quantile(0.5) != 0 || s.min != 0 || s.max != 0 {
		t.Fatal("empty sketch not zero-valued")
	}
	s.Add(math.NaN())
	if s.count != 0 {
		t.Fatal("NaN was recorded")
	}
	s.Add(0)
	s.Add(0)
	if s.count != 2 || s.Quantile(0.5) != 0 || s.max != 0 {
		t.Fatalf("zero-only sketch: count=%d q50=%v max=%v", s.count, s.Quantile(0.5), s.max)
	}
	s.Add(-3) // negative clamps to zero
	if s.min != 0 || s.count != 3 {
		t.Fatal("negative value not clamped to zero")
	}
}

func TestLogSketchExactMinMaxAndBounds(t *testing.T) {
	var s LogSketch
	vals := []float64{3.7, 0.001, 12, 9999.5, 1e-30, 7e12, 0.5}
	for _, v := range vals {
		s.Add(v)
	}
	if s.min != 1e-30 || s.max != 7e12 {
		t.Fatalf("min/max = %v/%v", s.min, s.max)
	}
	if got := s.Quantile(0); got != 1e-30 {
		t.Fatalf("q0 = %v", got)
	}
	if got := s.Quantile(1); got != 7e12 {
		t.Fatalf("q1 = %v", got)
	}
}

// TestLogSketchRelativeError checks every interior quantile estimate is
// within the advertised relative error of the exact sample quantile
// (nearest-rank), over assorted deterministic streams.
func TestLogSketchRelativeError(t *testing.T) {
	rng := NewRNG(42)
	tol := RelativeError()
	for trial := 0; trial < 20; trial++ {
		n := 100 + rng.Intn(5000)
		var s LogSketch
		xs := make([]float64, n)
		for i := range xs {
			// Log-uniform magnitudes across several decades.
			xs[i] = math.Exp(rng.Uniform(-5, 10))
			s.Add(xs[i])
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		for _, q := range []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99} {
			got := s.Quantile(q)
			// Exact nearest-rank quantile — the semantics the sketch
			// implements — so the only divergence is bucket width.
			rank := int(math.Ceil(q * float64(n)))
			if rank < 1 {
				rank = 1
			}
			exact := sorted[rank-1]
			if exact <= 0 {
				continue
			}
			if rel := math.Abs(got-exact) / exact; rel > tol {
				t.Fatalf("trial %d q=%v: sketch %v vs exact %v (rel err %v > %v)",
					trial, q, got, exact, rel, tol)
			}
		}
	}
}

// TestLogSketchMergeEqualsWhole checks the shard-fold property the
// streamed analyzer depends on: per-shard sketches merged in any order
// have exactly the state of one sketch over the whole stream.
func TestLogSketchMergeEqualsWhole(t *testing.T) {
	rng := NewRNG(7)
	n := 4096
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = math.Exp(rng.Uniform(-3, 8))
	}
	var whole LogSketch
	for _, x := range xs {
		whole.Add(x)
	}
	// Shards of uneven sizes, merged both in order and reversed.
	bounds := []int{0, 17, 1000, 1001, 2500, n}
	for _, reversed := range []bool{false, true} {
		shards := make([]*LogSketch, 0, len(bounds)-1)
		for i := 0; i+1 < len(bounds); i++ {
			sh := &LogSketch{}
			for _, x := range xs[bounds[i]:bounds[i+1]] {
				sh.Add(x)
			}
			shards = append(shards, sh)
		}
		var merged LogSketch
		if reversed {
			for i := len(shards) - 1; i >= 0; i-- {
				merged.Merge(shards[i])
			}
		} else {
			for _, sh := range shards {
				merged.Merge(sh)
			}
		}
		if merged != whole {
			t.Fatalf("merged sketch (reversed=%v) differs from whole-stream sketch", reversed)
		}
	}
}

func TestLogSketchReset(t *testing.T) {
	var s LogSketch
	s.Add(1)
	s.Add(2)
	s.Reset()
	if s != (LogSketch{}) {
		t.Fatal("Reset did not zero the sketch")
	}
}

func TestLogSketchQuantilesBatch(t *testing.T) {
	var s LogSketch
	for i := 1; i <= 1000; i++ {
		s.Add(float64(i))
	}
	batch := s.Quantiles(0.1, 0.5, 0.9)
	for i, q := range []float64{0.1, 0.5, 0.9} {
		if batch[i] != s.Quantile(q) {
			t.Fatalf("Quantiles[%d] = %v, Quantile = %v", i, batch[i], s.Quantile(q))
		}
	}
	// Unsorted input falls back but stays correct.
	rev := s.Quantiles(0.9, 0.1)
	if rev[0] != s.Quantile(0.9) || rev[1] != s.Quantile(0.1) {
		t.Fatal("unsorted Quantiles wrong")
	}
}

// TestLogSketchJSONRoundTrip checks the sparse wire form reproduces the
// sketch exactly — the property cluster shard spill depends on.
func TestLogSketchJSONRoundTrip(t *testing.T) {
	rng := NewRNG(11)
	var s LogSketch
	s.Add(0)
	for i := 0; i < 500; i++ {
		s.Add(math.Exp(rng.Uniform(-4, 9)))
	}
	data, err := s.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var back LogSketch
	if err := back.UnmarshalJSON(data); err != nil {
		t.Fatal(err)
	}
	if back != s {
		t.Fatal("JSON round trip changed the sketch")
	}
	// Empty sketch round-trips too.
	var empty, emptyBack LogSketch
	data, err = empty.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if err := emptyBack.UnmarshalJSON(data); err != nil {
		t.Fatal(err)
	}
	if emptyBack != empty {
		t.Fatal("empty sketch round trip changed state")
	}
	// Corrupt totals are rejected.
	if err := new(LogSketch).UnmarshalJSON([]byte(`{"count":5,"zeros":1,"min":0,"max":1}`)); err == nil {
		t.Fatal("inconsistent sketch accepted")
	}
	if err := new(LogSketch).UnmarshalJSON([]byte(`{"count":1,"min":1,"max":1,"buckets":{"999999":1}}`)); err == nil {
		t.Fatal("out-of-range bucket accepted")
	}
}

// TestLogSketchAddAllocs checks Add is allocation-free, the property the
// per-worker shard arenas rely on.
func TestLogSketchAddAllocs(t *testing.T) {
	var s LogSketch
	allocs := testing.AllocsPerRun(1000, func() {
		s.Add(3.25)
	})
	if allocs != 0 {
		t.Fatalf("Add allocates %v per op", allocs)
	}
}
