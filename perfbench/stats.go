package main

import (
	"sort"
	"time"
)

// tailLadder lists the percentiles a tail is reported at, highest first, in
// per-mille so the rank arithmetic stays exact (0.99*1000 is not 990 in
// floating point).
var tailLadder = []int{999, 990, 950, 900, 750, 500}

// rank is the zero-based nearest-rank index of per-mille percentile p in n
// sorted samples.
func rank(n, p int) int {
	k := (p*n+999)/1000 - 1
	if k < 0 {
		k = 0
	}
	return k
}

// tailPermille is the highest percentile on the ladder with at least ten
// samples beyond it — the only tail a sample of n supports. ok is false when
// not even the median has ten samples beyond it.
func tailPermille(n int) (p int, ok bool) {
	for _, p := range tailLadder {
		if n-1-rank(n, p) >= 10 {
			return p, true
		}
	}
	return 0, false
}

// latencies is a sample of operation times plus the count of operations
// that failed outright. A failed operation counts as over any limit: it
// enters the sample at failPenalty.
type latencies struct {
	samples []time.Duration
	failed  int
}

// failPenalty is the latency charged to a failed operation: the client's
// whole I/O deadline, longer than any successful call can take.
const failPenalty = 30 * time.Second

func (l *latencies) add(d time.Duration, err error) {
	if err != nil {
		l.failed++
		d = failPenalty
	}
	l.samples = append(l.samples, d)
}

func (l *latencies) merge(o latencies) {
	l.samples = append(l.samples, o.samples...)
	l.failed += o.failed
}

// sorted returns the samples in ascending order (a copy).
func (l *latencies) sorted() []time.Duration {
	s := append([]time.Duration(nil), l.samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// at returns the per-mille percentile p in milliseconds (0 with no samples).
func (l *latencies) at(p int) float64 {
	s := l.sorted()
	if len(s) == 0 {
		return 0
	}
	return ms(s[rank(len(s), p)])
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median returns the median of xs (0 for none); xs is left untouched.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
