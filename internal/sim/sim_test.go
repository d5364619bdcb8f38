package sim

import (
	"math"
	"testing"
)

func TestEventsFireInTimeOrder(t *testing.T) {
	s := New()
	var got []float64
	for _, tt := range []float64{5, 1, 3, 2, 4} {
		tt := tt
		s.At(tt, PriDispatch, func() { got = append(got, tt) })
	}
	s.Run()
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("events out of order: %v", got)
		}
	}
	if s.Now() != 5 {
		t.Fatalf("Now = %g, want 5", s.Now())
	}
}

func TestPriorityBreaksTimeTies(t *testing.T) {
	s := New()
	var got []string
	s.At(10, PriDispatch, func() { got = append(got, "dispatch") })
	s.At(10, PriJobFinish, func() { got = append(got, "finish") })
	s.At(10, PriResourceChange, func() { got = append(got, "arrival") })
	s.Run()
	want := []string{"finish", "arrival", "dispatch"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("tie order = %v, want %v", got, want)
		}
	}
}

func TestSequenceBreaksFullTies(t *testing.T) {
	s := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(1, PriDispatch, func() { got = append(got, i) })
	}
	s.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("insertion order not preserved: %v", got)
		}
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	s := New()
	count := 0
	var chain func()
	chain = func() {
		count++
		if count < 5 {
			s.At(s.Now()+1, PriDispatch, chain)
		}
	}
	s.At(0, PriDispatch, chain)
	s.Run()
	if count != 5 || s.Now() != 4 {
		t.Fatalf("count=%d now=%g, want 5 and 4", count, s.Now())
	}
}

func TestPastSchedulingPanics(t *testing.T) {
	s := New()
	s.At(5, PriDispatch, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic scheduling into the past")
			}
		}()
		s.At(1, PriDispatch, func() {})
	})
	s.Run()
}

func TestNonFiniteTimePanics(t *testing.T) {
	s := New()
	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic for t=%v", bad)
				}
			}()
			s.At(bad, PriDispatch, func() {})
		}()
	}
}

func BenchmarkEventLoop(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := New()
		var next func()
		n := 0
		next = func() {
			n++
			if n < 1000 {
				s.At(s.Now()+1, PriDispatch, next)
			}
		}
		s.At(0, PriDispatch, next)
		s.Run()
	}
}
