package stats

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
)

// Log-spaced quantile sketch constants. Each power-of-two binade is
// split into 1<<sketchSubBits sub-buckets, giving a fixed relative
// error of 2^(1/32) − 1 ≈ 2.2% per recorded value; exponents outside
// [sketchMinExp, sketchMaxExp) clamp into the boundary buckets and the
// exact tracked min/max bound the reported quantiles.
const (
	sketchSubBits = 5
	sketchSubN    = 1 << sketchSubBits // sub-buckets per binade
	sketchMinExp  = -64                // smallest binade: [2^-64, 2^-63)
	sketchMaxExp  = 64                 // exclusive upper binade bound
	sketchBuckets = (sketchMaxExp - sketchMinExp) * sketchSubN
)

// LogSketch is a bounded-memory quantile sketch over non-negative
// values: a fixed array of log-spaced buckets (32 per power of two)
// plus exact count, min, and max. It is deterministic — the same
// multiset of inputs yields the same state regardless of insertion
// order — and two sketches merge by vector addition, so per-shard
// sketches folded in any order equal the sketch of the full stream.
// Quantile answers carry the bucket's relative error (≈2.2%); Min, Max,
// and Count are exact. The zero value is an empty sketch ready for use;
// Add performs no allocation, so sketches can live in per-worker arenas.
type LogSketch struct {
	count   int64
	zeros   int64 // values ≤ 0 (skews are non-negative; ≤0 means exactly 0 in practice)
	min     float64
	max     float64
	buckets [sketchBuckets]int64
}

// sketchBucket maps a positive value to its bucket index, clamping
// out-of-range exponents into the boundary buckets.
func sketchBucket(v float64) int {
	frac, exp := math.Frexp(v) // v = frac·2^exp, frac ∈ [0.5, 1)
	binade := exp - 1          // floor(log2 v)
	if binade < sketchMinExp {
		return 0
	}
	if binade >= sketchMaxExp {
		return sketchBuckets - 1
	}
	sub := int((frac - 0.5) * (2 * sketchSubN)) // ∈ [0, sketchSubN)
	if sub >= sketchSubN {
		sub = sketchSubN - 1
	}
	return (binade-sketchMinExp)*sketchSubN + sub
}

// sketchValue returns the representative (geometric lower edge midpoint)
// of a bucket index: 2^binade · (1 + (sub+0.5)/subN).
func sketchValue(idx int) float64 {
	binade := idx/sketchSubN + sketchMinExp
	sub := idx % sketchSubN
	return math.Ldexp(1+(float64(sub)+0.5)/sketchSubN, binade)
}

// Add records one value. NaN is ignored (it has no place in an order);
// negative values count as zero, since the skews this sketch summarizes
// are non-negative by construction.
func (s *LogSketch) Add(v float64) {
	if math.IsNaN(v) {
		return
	}
	if v < 0 {
		v = 0
	}
	if s.count == 0 {
		s.min, s.max = v, v
	} else {
		if v < s.min {
			s.min = v
		}
		if v > s.max {
			s.max = v
		}
	}
	s.count++
	if v == 0 {
		s.zeros++
		return
	}
	s.buckets[sketchBucket(v)]++
}

// Merge folds o into s. Merging is commutative and associative: folding
// per-shard sketches in any order produces the same state as one sketch
// over the concatenated stream.
func (s *LogSketch) Merge(o *LogSketch) {
	if o.count == 0 {
		return
	}
	if s.count == 0 {
		s.min, s.max = o.min, o.max
	} else {
		if o.min < s.min {
			s.min = o.min
		}
		if o.max > s.max {
			s.max = o.max
		}
	}
	s.count += o.count
	s.zeros += o.zeros
	for i := range s.buckets {
		s.buckets[i] += o.buckets[i]
	}
}

// Reset empties the sketch for reuse without allocating.
func (s *LogSketch) Reset() { *s = LogSketch{} }

// RelativeError returns the sketch's worst-case relative quantile error
// (half a bucket's geometric width on either side): 2^(1/subN) − 1.
func RelativeError() float64 { return math.Exp2(1.0/sketchSubN) - 1 }

// Quantile returns an estimate of the q-th quantile (q in [0, 1]),
// with nearest-rank semantics over the bucketed distribution. Results
// clamp to the exact [Min, Max]; q=0 and q=1 return them exactly. An
// empty sketch returns 0.
func (s *LogSketch) Quantile(q float64) float64 {
	if s.count == 0 {
		return 0
	}
	if q <= 0 {
		return s.min
	}
	if q >= 1 {
		return s.max
	}
	rank := int64(math.Ceil(q * float64(s.count)))
	if rank < 1 {
		rank = 1
	}
	if rank > s.count {
		rank = s.count
	}
	cum := s.zeros
	if rank <= cum {
		return clampSketch(0, s.min, s.max)
	}
	for i := range s.buckets {
		cum += s.buckets[i]
		if rank <= cum {
			return clampSketch(sketchValue(i), s.min, s.max)
		}
	}
	return s.max
}

// Quantiles returns estimates for each q in qs with one cumulative
// scan. The qs must be sorted ascending; out-of-order entries fall back
// to individual Quantile calls.
func (s *LogSketch) Quantiles(qs ...float64) []float64 {
	out := make([]float64, len(qs))
	for i := 1; i < len(qs); i++ {
		if qs[i] < qs[i-1] {
			for j, q := range qs {
				out[j] = s.Quantile(q)
			}
			return out
		}
	}
	for i, q := range qs {
		out[i] = s.Quantile(q) // single pass per q; bucket scan is 4096 fixed steps
	}
	return out
}

func clampSketch(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// sketchJSON is the wire form of a LogSketch: scalars plus a sparse
// bucket map, so shard sketches shipped between cluster nodes cost
// bytes proportional to occupied buckets, not the fixed array.
type sketchJSON struct {
	Count   int64            `json:"count"`
	Zeros   int64            `json:"zeros,omitempty"`
	Min     float64          `json:"min"`
	Max     float64          `json:"max"`
	Buckets map[string]int64 `json:"buckets,omitempty"`
}

// MarshalJSON implements json.Marshaler with the sparse wire form.
func (s *LogSketch) MarshalJSON() ([]byte, error) {
	w := sketchJSON{Count: s.count, Zeros: s.zeros}
	if s.count > 0 {
		w.Min, w.Max = s.min, s.max
	}
	for i, c := range s.buckets {
		if c != 0 {
			if w.Buckets == nil {
				w.Buckets = make(map[string]int64)
			}
			w.Buckets[fmt.Sprint(i)] = c
		}
	}
	return json.Marshal(w)
}

// UnmarshalJSON implements json.Unmarshaler; the decoded sketch merges
// and queries identically to the one that was marshaled.
func (s *LogSketch) UnmarshalJSON(data []byte) error {
	var w sketchJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	out := LogSketch{count: w.Count, zeros: w.Zeros}
	if w.Count > 0 {
		out.min, out.max = w.Min, w.Max
	}
	var total int64 = w.Zeros
	// Deterministic iteration keeps error messages stable.
	keys := make([]string, 0, len(w.Buckets))
	for k := range w.Buckets {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		var idx int
		if _, err := fmt.Sscanf(k, "%d", &idx); err != nil || idx < 0 || idx >= sketchBuckets {
			return fmt.Errorf("stats: sketch bucket key %q out of range", k)
		}
		c := w.Buckets[k]
		if c < 0 {
			return fmt.Errorf("stats: sketch bucket %q has negative count %d", k, c)
		}
		out.buckets[idx] = c
		total += c
	}
	if total != w.Count {
		return fmt.Errorf("stats: sketch bucket counts sum to %d, count says %d", total, w.Count)
	}
	*s = out
	return nil
}
