package des

import (
	"testing"
	"testing/quick"
)

func TestEventsFireInTimeOrder(t *testing.T) {
	var s Sim
	var order []int
	s.At(3, func() { order = append(order, 3) })
	s.At(1, func() { order = append(order, 1) })
	s.At(2, func() { order = append(order, 2) })
	end := s.Run(100)
	if end != 3 {
		t.Errorf("final time = %g", end)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
}

func TestEqualTimeFIFO(t *testing.T) {
	var s Sim
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(5, func() { order = append(order, i) })
	}
	s.Run(100)
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-break not FIFO: %v", order)
		}
	}
}

func TestAfterAndNow(t *testing.T) {
	var s Sim
	var sampled float64
	s.After(2, func() {
		sampled = s.Now()
		s.After(3, func() {
			if s.Now() != 5 {
				t.Errorf("nested Now = %g", s.Now())
			}
		})
	})
	s.Run(100)
	if sampled != 2 {
		t.Errorf("sampled = %g", sampled)
	}
}

func TestSchedulingIntoPastPanics(t *testing.T) {
	var s Sim
	s.At(10, func() {})
	s.Step()
	defer func() {
		if recover() == nil {
			t.Error("past scheduling should panic")
		}
	}()
	s.At(5, func() {})
}

func TestNaNPanics(t *testing.T) {
	var s Sim
	defer func() {
		if recover() == nil {
			t.Error("NaN scheduling should panic")
		}
	}()
	nan := 0.0
	s.At(nan/nan, func() {})
}

func TestRunBudgetPanics(t *testing.T) {
	var s Sim
	var reschedule func()
	reschedule = func() { s.After(1, reschedule) }
	s.After(1, reschedule)
	defer func() {
		if recover() == nil {
			t.Error("runaway loop should exhaust budget and panic")
		}
	}()
	s.Run(50)
}

func TestStepOnEmpty(t *testing.T) {
	var s Sim
	if s.Step() {
		t.Error("Step on empty returned true")
	}
}

func TestMonotoneTimeProperty(t *testing.T) {
	f := func(delays []float64) bool {
		var s Sim
		var times []float64
		for _, d := range delays {
			if d < 0 {
				d = -d
			}
			if d > 1e6 {
				continue
			}
			s.At(d, func() { times = append(times, s.Now()) })
		}
		s.Run(int64(len(delays)) + 1)
		for i := 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
