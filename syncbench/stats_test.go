package main

import "testing"

func ramp(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(n - i) // descending, so percentile must sort
	}
	return s
}

func TestPercentileRefusesThinTail(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		want float64 // 0 means refused
	}{
		{100, 90, 90},   // exactly ten samples beyond
		{99, 90, 0},     // nine beyond
		{100, 95, 0},    // five beyond
		{1000, 99, 990}, // exactly ten beyond
		{999, 99, 0},    // nine beyond
		{200, 95, 190},
		{1, 50, 0},
	}
	for _, c := range cases {
		got, err := percentile(ramp(c.n), c.p)
		if c.want == 0 {
			if err == nil {
				t.Errorf("p%g of %d samples = %g, want refusal", c.p, c.n, got)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("p%g of %d samples = %g, %v; want %g", c.p, c.n, got, err, c.want)
		}
	}
}

func TestTailPercentile(t *testing.T) {
	for n, want := range map[int]float64{99: 0, 100: 90, 199: 90, 200: 95, 999: 95, 1000: 99} {
		if got := tailPercentile(n); got != want {
			t.Errorf("tailPercentile(%d) = %g, want %g", n, got, want)
		}
	}
}

func TestWindowedPercentileTakesMedianWindow(t *testing.T) {
	// Three windows of 100 samples; the middle one is uniformly slower
	// and the last one much slower. The median window's p50 is reported.
	var s []float64
	for _, scale := range []float64{1, 2, 10} {
		for i := 0; i < 100; i++ {
			s = append(s, scale*float64(i+1))
		}
	}
	if got, err := windowedPercentile(s, 50, 3); err != nil || got != 100 {
		t.Errorf("windowed p50 = %g, %v; want 100", got, err)
	}
	if _, err := windowedPercentile(s[:297], 90, 3); err == nil {
		t.Error("windowed p90 over 99-sample windows was not refused")
	}
}
