package main

import (
	"testing"
	"time"
)

// fakeClock is host time under the test's control: Sleep and the scripted
// query durations advance it.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time        { return c.now }
func (c *fakeClock) Sleep(d time.Duration) { c.now = c.now.Add(d) }

// A stalled query charges the queries due behind it: each is timed from
// its due time, so the stall shows in their latency, and the generator's
// lateness says how far behind schedule it ran.
func TestOpenLoopChargesStallToQueriesDueBehind(t *testing.T) {
	c := &fakeClock{now: time.Unix(0, 0)}
	const interval = 10 * time.Millisecond
	run := openLoop(c, interval, func(i int) bool { return i < 6 }, func(i int) error {
		d := time.Millisecond
		if i == 0 {
			d = 45 * time.Millisecond // the stall
		}
		c.now = c.now.Add(d)
		return nil
	})
	// Query i is due at 10i ms. Query 0 returns at 45 ms; queries 1-4 go
	// out back to back from there, one millisecond each; query 5 is due at
	// 50 ms and the generator is on time again.
	wantLatency := []time.Duration{45, 36, 27, 18, 9, 1}
	wantLate := []time.Duration{0, 35, 26, 17, 8, 0}
	for i := range wantLatency {
		if got := run.latency.samples[i]; got != wantLatency[i]*time.Millisecond {
			t.Errorf("query %d latency %v, want %v", i, got, wantLatency[i]*time.Millisecond)
		}
		if got := run.late.samples[i]; got != wantLate[i]*time.Millisecond {
			t.Errorf("query %d late %v, want %v", i, got, wantLate[i]*time.Millisecond)
		}
	}
}

// Without stalls the open loop keeps its schedule: nothing is late and each
// latency is the service time alone.
func TestOpenLoopOnSchedule(t *testing.T) {
	c := &fakeClock{now: time.Unix(0, 0)}
	run := openLoop(c, 5*time.Millisecond, func(i int) bool { return i < 100 }, func(int) error {
		c.now = c.now.Add(2 * time.Millisecond)
		return nil
	})
	if len(run.latency.samples) != 100 {
		t.Fatalf("%d queries, want 100", len(run.latency.samples))
	}
	for i, d := range run.latency.samples {
		if d != 2*time.Millisecond || run.late.samples[i] != 0 {
			t.Fatalf("query %d: latency %v late %v, want 2ms and 0", i, d, run.late.samples[i])
		}
	}
}

func TestClosedLoopTimesFromSend(t *testing.T) {
	c := &fakeClock{now: time.Unix(0, 0)}
	l := closedLoop(c, 3, func(i int) error {
		c.now = c.now.Add(time.Duration(i+1) * time.Millisecond)
		if i == 2 {
			return errTablesDiverged
		}
		return nil
	})
	if l.samples[0] != time.Millisecond || l.samples[1] != 2*time.Millisecond || l.samples[2] != failPenalty || l.failed != 1 {
		t.Errorf("closed loop samples %v, failed %d", l.samples, l.failed)
	}
}
