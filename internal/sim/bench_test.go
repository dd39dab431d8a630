package sim

import (
	"testing"
	"time"
)

func BenchmarkEngineScheduleAndFire(b *testing.B) {
	e := NewEngine()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(time.Duration(i%1000)*time.Millisecond, "b", func() {})
		if e.Pending() > 1024 {
			for e.Pending() > 0 {
				e.Step()
			}
		}
	}
}

func BenchmarkEngineTimerWheelPattern(b *testing.B) {
	// The dominant workload shape in the study: a self-re-arming periodic
	// callback (the logger's detectors, the battery tick).
	e := NewEngine()
	ticks := 0
	var tick func()
	tick = func() {
		ticks++
		e.After(time.Minute, "tick", tick)
	}
	e.After(time.Minute, "tick", tick)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
	if ticks == 0 {
		b.Fatal("no ticks")
	}
}

func BenchmarkEngineCancel(b *testing.B) {
	e := NewEngine()
	evs := make([]Event, 0, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(evs) == cap(evs) {
			for _, ev := range evs {
				e.Cancel(ev)
			}
			evs = evs[:0]
		}
		evs = append(evs, e.After(time.Hour, "c", func() {}))
	}
}

func BenchmarkRandUint64(b *testing.B) {
	r := NewRand(1)
	var x uint64
	for i := 0; i < b.N; i++ {
		x ^= r.Uint64()
	}
	_ = x
}

func BenchmarkRandExpDuration(b *testing.B) {
	r := NewRand(1)
	var x time.Duration
	for i := 0; i < b.N; i++ {
		x ^= r.ExpDuration(time.Hour)
	}
	_ = x
}

func BenchmarkRandWeightedIndex(b *testing.B) {
	r := NewRand(1)
	weights := []float64{56.31, 10.1, 6.31, 6.31, 5.81, 5.56, 2.53, 1.52, 0.76, 0.76, 0.76, 0.51, 0.51, 0.25, 0.25, 0.25, 0.25, 0.25}
	var x int
	for i := 0; i < b.N; i++ {
		x ^= r.WeightedIndex(weights)
	}
	_ = x
}

func BenchmarkHistogramAdd(b *testing.B) {
	h := NewHistogram(0, 50000, 100)
	r := NewRand(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Add(r.Float64() * 60000)
	}
}
