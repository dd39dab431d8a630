package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"sync"
	"time"
)

// The live-query client runs in a process of its own, as a real client
// would. Inside the benchmark process it would wait for the same Go
// scheduler the simulation keeps busy, and measure its own scheduling
// delays as query latency.

// clientMode, as the first argument, runs the query client.
const clientMode = "query-client"

// clientReport is what the client process measured.
type clientReport struct {
	Latency []time.Duration `json:"latency_ns"`
	Failed  int             `json:"failed"`
	Late    []time.Duration `json:"late_ns"`
}

// runQueryClient queries addr open-loop at rate per second until its
// standard input closes, then writes a clientReport to standard output.
func runQueryClient(args []string) error {
	fs := flag.NewFlagSet(clientMode, flag.ContinueOnError)
	addr := fs.String("addr", "", "collection server address")
	rate := fs.Float64("rate", 0, "queries per second")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *addr == "" || *rate <= 0 {
		return fmt.Errorf("%s: need -addr and -rate > 0", clientMode)
	}
	done := make(chan struct{})
	go func() {
		_, _ = io.Copy(io.Discard, os.Stdin)
		close(done)
	}()
	run := openLoop(hostClock{}, rateInterval(*rate), func(int) bool {
		select {
		case <-done:
			return false
		default:
			return true
		}
	}, querySender(*addr))
	return json.NewEncoder(os.Stdout).Encode(clientReport{
		Latency: run.latency.samples,
		Failed:  run.latency.failed,
		Late:    run.late.samples,
	})
}

// startLiveQueries starts the client process against addr. stop ends it,
// waits for it and stores what it measured in r; calls after the first
// return the first call's error.
func startLiveQueries(w workload, addr string, r *rep) (stop func() error, err error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("query client: %w", err)
	}
	cmd := exec.Command(exe, clientMode, "-addr", addr, "-rate", strconv.FormatFloat(w.queryRate, 'g', -1, 64))
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, fmt.Errorf("query client: %w", err)
	}
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("query client: %w", err)
	}
	var once sync.Once
	return func() error {
		once.Do(func() {
			_ = stdin.Close() // the client's signal to stop
			if err = cmd.Wait(); err != nil {
				err = fmt.Errorf("query client: %w", err)
				return
			}
			var rp clientReport
			if err = json.Unmarshal(out.Bytes(), &rp); err != nil {
				err = fmt.Errorf("query client report: %w", err)
				return
			}
			r.queries = openLoopRun{
				latency: latencies{samples: rp.Latency, failed: rp.Failed},
				late:    latencies{samples: rp.Late},
			}
			r.ops.queries, r.ops.queryFailed = len(rp.Latency), rp.Failed
		})
		return err
	}, nil
}
