package main

import (
	"testing"
	"time"
)

// The tail rule: report the highest percentile with at least ten samples
// beyond it.
func TestTailPermille(t *testing.T) {
	for _, c := range []struct {
		n    int
		want int
		ok   bool
	}{
		{10000, 999, true},
		{9999, 990, true},
		{1000, 990, true}, // rank 989: exactly ten samples beyond
		{999, 950, true},
		{200, 950, true},
		{199, 900, true},
		{100, 900, true},
		{99, 750, true},
		{40, 750, true},
		{39, 500, true},
		{21, 500, true},
		{20, 500, true},
		{19, 0, false},
		{0, 0, false},
	} {
		got, ok := tailPermille(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPermille(%d) = %d, %v; want %d, %v", c.n, got, ok, c.want, c.ok)
		}
		if ok && c.n-1-rank(c.n, got) < 10 {
			t.Errorf("n=%d: p%g leaves %d samples beyond it", c.n, float64(got)/10, c.n-1-rank(c.n, got))
		}
	}
}

func TestLatenciesAt(t *testing.T) {
	var l latencies
	for i := 1000; i >= 1; i-- {
		l.add(time.Duration(i)*time.Millisecond, nil)
	}
	if got := l.at(990); got != 990 {
		t.Errorf("p99 of 1..1000 ms = %g, want 990", got)
	}
	if got := l.at(500); got != 500 {
		t.Errorf("p50 of 1..1000 ms = %g, want 500", got)
	}
	// A failed operation is over any limit.
	for i := 0; i < 20; i++ {
		l.add(time.Millisecond, errTablesDiverged)
	}
	if got := l.at(990); got != ms(failPenalty) || l.failed != 20 {
		t.Errorf("p99 with 20 failures in 1020 = %g ms (%d failed), want the failure penalty", got, l.failed)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3,1,2 = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4,1,3,2 = %g", got)
	}
}
