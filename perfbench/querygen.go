package main

import (
	"encoding/json"
	"fmt"
	"time"

	"symfail/internal/collect"
)

// clock is host time, behind an interface so the open-loop accounting can
// be tested against a scripted clock.
type clock interface {
	Now() time.Time
	Sleep(d time.Duration)
}

type hostClock struct{}

func (hostClock) Now() time.Time        { return time.Now() }
func (hostClock) Sleep(d time.Duration) { time.Sleep(d) }

// queryNames is the rotation a query client cycles through: every query the
// live tier serves.
var queryNames = []string{"status", "mtbf", "panics", "freezerate"}

// openLoopRun is what one open-loop client measured.
type openLoopRun struct {
	// latency runs from each query's due time to its answer.
	latency latencies
	// late runs from each query's due time to when it was sent: how far
	// behind schedule the generator itself ran.
	late latencies
}

// openLoop is one open-loop client: query i is due at start + i*interval
// whatever happened before it, and is sent once the previous query has
// returned. A stalled query therefore makes every query due behind it late,
// and because latency is measured from the due time, the stall is charged
// to each of them too — the client cannot hide a stall by sending less.
// The loop runs while more(i) holds.
func openLoop(c clock, interval time.Duration, more func(i int) bool, send func(i int) error) openLoopRun {
	var run openLoopRun
	start := c.Now()
	for i := 0; more(i); i++ {
		due := start.Add(time.Duration(i) * interval)
		if wait := due.Sub(c.Now()); wait > 0 {
			c.Sleep(wait)
		}
		sent := c.Now()
		err := send(i)
		run.late.add(sent.Sub(due), nil)
		run.latency.add(c.Now().Sub(due), err)
	}
	return run
}

// closedLoop is one client sending n queries back to back, each timed from
// when it was sent.
func closedLoop(c clock, n int, send func(i int) error) latencies {
	var l latencies
	for i := 0; i < n; i++ {
		start := c.Now()
		err := send(i)
		l.add(c.Now().Sub(start), err)
	}
	return l
}

func rateInterval(perSec float64) time.Duration {
	return time.Duration(float64(time.Second) / perSec)
}

// querySender sends query i of the rotation over the wire. An answer that
// is not JSON counts as a failure.
func querySender(addr string) func(i int) error {
	return func(i int) error {
		out, err := collect.Query(addr, queryNames[i%len(queryNames)])
		if err == nil && !json.Valid([]byte(out)) {
			err = fmt.Errorf("query %s: answer is not JSON: %q", queryNames[i%len(queryNames)], out)
		}
		return err
	}
}
