// Command perfbench is symfail's end-to-end benchmark. It runs one workload
// for a fixed time and prints every metric by name with its unit; the last
// line of standard output is one JSON result. Run it from the repository
// root through perfbench/run.sh, which keeps the build inside the checkout:
//
//	bash perfbench/run.sh --workload sim-scale --seed 2007 --seconds 20 --trace 0
//
// --trace 0 measures the end-to-end metrics through the public facade with
// nothing else timed. --trace 1 first runs one untraced study for its
// dataset fingerprint, then repeats the study assembled from the layers'
// public functions with each layer boundary timed and a CPU profile
// running, and reports the per-layer ledger. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"symfail/internal/phone"
)

// metric is one named number of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

const (
	// setupReps is how many times a run builds the deployment to time
	// set-up; the median is reported.
	setupReps = 51
	// runLimit stops a run that would outlive the time it is allowed.
	runLimit = 150 * time.Second
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == clientMode {
		if err := runQueryClient(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	name := flag.String("workload", "", "workload: sim-scale, fleet-study or live-query")
	seed := flag.Uint64("seed", 2007, "seed the workload's inputs are made from")
	seconds := flag.Int("seconds", 20, "how long to measure")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer ledger instead of the end-to-end metrics")
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload sim-scale|fleet-study|live-query, --seconds >= 1 and --trace 0|1")
		os.Exit(2)
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	printJSON("host", readHost(root))
	printJSON("workload", map[string]any{
		"name": w.name, "seed": *seed, "loop": w.loop, "query_rate_per_s": w.queryRate,
		"phones": w.phones, "months": float64(w.duration) / float64(phone.StudyMonth),
		"trace": *trace, "seconds": *seconds,
	})
	budget := time.Duration(*seconds) * time.Second
	var res result
	if *trace == 0 {
		res, err = runPlain(w, *seed, budget)
	} else {
		res, err = runTraced(w, *seed, budget)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("metric %s = %s %s\n", k, strconv.FormatFloat(res.Metrics[k].Value, 'g', -1, 64), res.Metrics[k].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func printJSON(label string, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		b = []byte(strconv.Quote(err.Error()))
	}
	fmt.Printf("%s %s\n", label, b)
}

func info(format string, args ...any) {
	fmt.Printf("info "+format+"\n", args...)
}

// checks collects failed output checks: the run still reports its numbers
// but is marked incorrect.
type checks struct{ failed int }

func (c *checks) expect(ok bool, format string, args ...any) {
	if !ok {
		c.failed++
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", fmt.Sprintf(format, args...))
	}
}

// repeat runs measured studies until the budget is spent (at least one)
// and they hold minQueries answers. Every study must reproduce ref's
// dataset.
func repeat(w workload, budget time.Duration, c *checks, ref rep, study func() (rep, error)) ([]rep, error) {
	start := time.Now()
	var reps []rep
	queries := 0
	for len(reps) == 0 || time.Since(start) < budget || queries < w.minQueries {
		if time.Since(start) > runLimit {
			return nil, fmt.Errorf("%d queries after %s; a run needs %d", queries, runLimit, w.minQueries)
		}
		r, err := study()
		if err != nil {
			return nil, err
		}
		c.expect(r.crc == ref.crc && r.records == ref.records,
			"study %d: dataset crc %08x with %d records, reference study %08x with %d",
			len(reps), r.crc, r.records, ref.crc, ref.records)
		c.expect(r.liveErr == nil, "%v", r.liveErr)
		queries += len(r.queries.latency.samples)
		r.ds, r.study = nil, nil
		reps = append(reps, r)
	}
	return reps, nil
}

// reference runs the untraced study that every measured study must
// reproduce. It also warms the process up, so it is not measured.
func reference(w workload, seed uint64, c *checks) (rep, error) {
	ref, err := plainRep(w, seed)
	if err != nil {
		return ref, err
	}
	c.expect(ref.records > 0, "study collected no records")
	c.expect(ref.liveErr == nil, "reference study: %v", ref.liveErr)
	ref.ds, ref.study = nil, nil
	return ref, nil
}

// runPlain measures the end-to-end metrics.
func runPlain(w workload, seed uint64, budget time.Duration) (result, error) {
	var c checks
	setups := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		d, err := setup(w, seed)
		if err != nil {
			return result{}, err
		}
		setups = append(setups, d.Seconds())
	}
	ref, err := reference(w, seed, &c)
	if err != nil {
		return result{}, err
	}
	total0, steal0 := hostCPU()
	reps, err := repeat(w, budget, &c, ref, func() (rep, error) { return plainRep(w, seed) })
	if err != nil {
		return result{}, err
	}
	// A host that steals CPU slows every timing; the share says how much.
	total1, steal1 := hostCPU()
	info("host steal %.1f%% of CPU time during the measured studies", 100*stealShare(total0, steal0, total1, steal1))
	var rates, allocs []float64
	var all ops
	var queries openLoopRun
	for _, r := range reps {
		rates = append(rates, r.hours/r.wall.Seconds())
		allocs = append(allocs, float64(r.alloc)/r.hours)
		all.add(r.ops)
		queries.latency.merge(r.queries.latency)
		queries.late.merge(r.queries.late)
	}
	peak := peakRSSMB()
	n := len(queries.latency.samples)
	if p, _ := tailPermille(n); p < 990 {
		return result{}, fmt.Errorf("%d queries support no p99; a run needs at least 1000", n)
	}
	info("measured studies %d after one warm-up, dataset crc %08x, records %d", len(reps), ref.crc, ref.records)
	info("setup_s samples %v", setups)
	info("phone_hours_per_s samples %v", rates)
	reportOps(all)
	info("query latency over %d queries (%d failed): p50 %.3f p90 %.3f p95 %.3f p99 %.3f p99.9 %.3f ms; generator late p99 %.3f ms",
		n, queries.latency.failed, queries.latency.at(500), queries.latency.at(900), queries.latency.at(950),
		queries.latency.at(990), queries.latency.at(999), queries.late.at(990))
	return result{
		Correct:   c.failed == 0,
		Attempted: all.attempted(),
		Failed:    all.failed(),
		Metrics: map[string]metric{
			"setup_s":                    {median(setups), "s"},
			"phone_hours_per_s":          {median(rates), "1/s"},
			"alloc_bytes_per_phone_hour": {median(allocs), "B"},
			"peak_rss_mb":                {peak, "MB"},
			"query_p50_ms":               {queries.latency.at(500), "ms"},
		},
	}, nil
}

// reportOps prints the failure ledger, each count beside its base.
func reportOps(o ops) {
	info("chunk uploads %d attempted, %d failed (%d quorum refusals)", o.chunkAttempts, o.chunkFailed, o.quorumRefusals)
	info("final uploads %d attempted, %d failed", o.finalUploads, o.finalFailed)
	info("queries %d attempted, %d failed", o.queries, o.queryFailed)
	info("failed_op_share = %d/%d = %g", o.failed(), o.attempted(), o.failedShare())
}

// runTraced measures the per-layer ledger.
func runTraced(w workload, seed uint64, budget time.Duration) (result, error) {
	var c checks
	ref, err := reference(w, seed, &c)
	if err != nil {
		return result{}, err
	}
	tr := &tracer{}
	var ledgers []ledger
	if err := tr.prof.start(); err != nil {
		return result{}, err
	}
	reps, err := repeat(w, budget, &c, ref, func() (rep, error) {
		r, lg, err := tracedRep(w, seed, tr)
		ledgers = append(ledgers, lg)
		return r, err
	})
	tr.prof.stop()
	if err != nil {
		return result{}, err
	}
	var all ops
	var queries openLoopRun
	var rates []float64
	for _, r := range reps {
		all.add(r.ops)
		queries.latency.merge(r.queries.latency)
		queries.late.merge(r.queries.late)
		rates = append(rates, r.hours/r.wall.Seconds())
	}
	p, err := tr.prof.profile()
	if err != nil {
		return result{}, err
	}
	shares, codec := attribute(p)

	m := map[string]metric{}
	for _, l := range layers {
		m[l+".cpu_share"] = metric{shares[l], "share"}
	}
	m["core.codec_cpu_share"] = metric{codec, "share"}
	med := func(key string) float64 {
		var xs []float64
		for _, lg := range ledgers {
			xs = append(xs, lg[key])
		}
		return median(xs)
	}
	for key, unit := range map[string]string{
		"sim.events_per_phone_hour":         "1/h",
		"symbos.ipc_msgs_per_phone_hour":    "1/h",
		"phone.fs_writes_per_phone_hour":    "1/h",
		"core.log_bytes_per_phone_hour":     "B/h",
		"runtime.alloc_bytes":               "B",
		"collect.bytes_sent_per_phone_hour": "B/h",
		"collect.bytes_retransmitted":       "B",
		"collect.wal_syncs":                 "count",
		"fleet.handoffs":                    "count",
		"fleet.handoff_failures":            "count",
		"fleet.degraded_requests":           "count",
		"fleet.suspicions":                  "count",
		"fleet.merge_s":                     "s",
		"stream.fold_records_per_s":         "1/s",
		"analysis.from_collect_s":           "s",
		"report.render_s":                   "s",
	} {
		m[key] = metric{med(key), unit}
	}
	m["runtime.gc_cpu_share"] = metric{tr.prof.gcShare(), "share"}
	m["collect.chunk_calls"] = metric{float64(len(tr.chunk.samples)) / float64(len(reps)), "count"}
	ratio := 0.0
	if uploads := all.chunkAttempts + all.finalUploads; uploads > 0 {
		ratio = float64(uploads-all.chunkFailed-all.finalFailed) / float64(uploads)
	}
	m["collect.upload_success_ratio"] = metric{ratio, "share"}
	m["failed_op_share"] = metric{all.failedShare(), "share"}
	for _, t := range []struct {
		name, unit string
		l          *latencies
		p          int
		perMs      float64
	}{
		{"collect.chunk_p50_ms", "ms", &tr.chunk, 500, 1},
		{"collect.chunk_p99_ms", "ms", &tr.chunk, 990, 1},
		{"collect.offset_p99_ms", "ms", &tr.offset, 990, 1},
		{"collect.final_upload_p50_ms", "ms", &tr.final, 500, 1},
		{"collect.final_upload_p99_ms", "ms", &tr.final, 990, 1},
		{"stream.live_observe_p99_us", "us", &tr.observe, 990, 1000},
		{"stream.query_hook_p99_ms", "ms", &tr.query, 990, 1},
		{"query.gen_late_p99_ms", "ms", &queries.late, 990, 1},
		{"query_p99_ms", "ms", &queries.latency, 990, 1},
	} {
		p, n := t.p, len(t.l.samples)
		if tail, ok := tailPermille(n); ok && tail < p {
			info("%s: %d samples support only p%g; reported at that percentile", t.name, n, float64(tail)/10)
			p = tail
		} else if !ok && n > 0 {
			info("%s: %d samples leave no percentile ten samples beyond it", t.name, n)
		}
		m[t.name] = metric{t.l.at(p) * t.perMs, t.unit}
	}
	info("traced studies %d, dataset crc %08x like the untraced study's, records %d", len(reps), ref.crc, ref.records)
	info("traced studies ran at %.1f phone-hours/s (median); a --trace 0 run's phone_hours_per_s gives the tracing overhead", median(rates))
	sum := 0.0
	for _, l := range layers {
		sum += shares[l]
	}
	info("cpu shares sum to %.6f over %d profile samples", sum, len(p.stacks))
	reportOps(all)
	return result{Correct: c.failed == 0, Attempted: all.attempted(), Failed: all.failed(), Metrics: m}, nil
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			if f := strings.Fields(rest); len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}
