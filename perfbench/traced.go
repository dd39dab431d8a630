package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"time"

	"symfail/internal/analysis"
	"symfail/internal/analysis/stream"
	"symfail/internal/collect"
	"symfail/internal/core"
	"symfail/internal/phone"
	"symfail/internal/report"
	"symfail/internal/sim"
	"symfail/internal/symbos"
)

// tracer collects what the traced run times at layer boundaries. Latency
// samples pool across every traced study of a run.
type tracer struct {
	prof                                 profiler
	mu                                   sync.Mutex
	chunk, offset, final, observe, query latencies
}

func (tr *tracer) since(l *latencies, start time.Time, err error) {
	d := time.Since(start)
	tr.mu.Lock()
	l.add(d, err)
	tr.mu.Unlock()
}

// timeObserve wraps the live tap (ServerConfig.OnRecord).
func (tr *tracer) timeObserve(fn func(string, core.Record)) func(string, core.Record) {
	return func(id string, r core.Record) {
		start := time.Now()
		fn(id, r)
		tr.since(&tr.observe, start, nil)
	}
}

// timeQuery wraps the QUERY hook (ServerConfig.Query).
func (tr *tracer) timeQuery(fn queryFn) queryFn {
	return func(name string, args []string) (string, error) {
		start := time.Now()
		out, err := fn(name, args)
		tr.since(&tr.query, start, err)
		return out, err
	}
}

// wireTimer is a TCP proxy in front of the collection tier. The traced run
// points the uploaders at it and times each chunk and offset request on the
// wire, from when the connection arrives to when the server has closed its
// reply. Timing the wire, rather than wrapping the uploader's
// collect.Transport, keeps host time out of the simulated uploader's call
// path.
type wireTimer struct {
	ln       net.Listener
	upstream string
	tr       *tracer
	wg       sync.WaitGroup
}

func startWireTimer(upstream string, tr *tracer) (*wireTimer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("wire timer: %w", err)
	}
	p := &wireTimer{ln: ln, upstream: upstream, tr: tr}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			p.wg.Add(1)
			go func() {
				defer p.wg.Done()
				p.relay(c)
			}()
		}
	}()
	return p, nil
}

func (p *wireTimer) addr() string { return p.ln.Addr().String() }

// close stops accepting and waits for every open exchange to end.
func (p *wireTimer) close() {
	_ = p.ln.Close()
	p.wg.Wait()
}

// relay forwards one request and its reply, and records the exchange under
// the request's verb. A reply that is not OK counts as a failure.
func (p *wireTimer) relay(client net.Conn) {
	defer client.Close()
	start := time.Now()
	deadline := start.Add(30 * time.Second)
	_ = client.SetDeadline(deadline)
	req := bufio.NewReader(client)
	header, err := req.ReadString('\n')
	if err != nil {
		return
	}
	verb, _, _ := strings.Cut(header, " ")
	up, err := net.Dial("tcp", p.upstream)
	if err != nil {
		p.record(verb, start, err)
		return
	}
	defer up.Close()
	_ = up.SetDeadline(deadline)
	sent := make(chan struct{})
	go func() {
		defer close(sent)
		if _, err := io.WriteString(up, header); err == nil {
			_, _ = io.Copy(up, req)
		}
	}()
	rep := bufio.NewReader(up)
	reply, err := rep.ReadString('\n')
	if err == nil {
		_, err = io.WriteString(client, reply)
	}
	if err == nil {
		_, err = io.Copy(client, rep)
	}
	_ = client.Close() // ends the request copy if the client is still sending
	<-sent
	if err == nil && !strings.HasPrefix(reply, "OK") {
		err = fmt.Errorf("%s: %s", verb, strings.TrimSpace(reply))
	}
	p.record(verb, start, err)
}

func (p *wireTimer) record(verb string, start time.Time, err error) {
	switch verb {
	case "CHUNK":
		p.tr.since(&p.tr.chunk, start, err)
	case "OFFSET":
		p.tr.since(&p.tr.offset, start, err)
	}
}

// ipcCounter sums the messages a phone's firmware servers handled across
// every boot. Each boot starts fresh servers, so the previous boot's count
// is banked when the next boot begins.
type ipcCounter struct {
	banked uint64
	cur    []*symbos.Server
}

func (c *ipcCounter) boot(d *phone.Device) {
	c.banked = c.total()
	c.cur = []*symbos.Server{d.FileServer().Server(), d.AppArchServer(), d.DBLogServer(), d.SysAgentServer(), d.MessageServer()}
}

func (c *ipcCounter) total() uint64 {
	n := c.banked
	for _, s := range c.cur {
		n += s.Served()
	}
	return n
}

// ledger is one traced study's per-layer numbers that are not latency
// samples, keyed by metric name.
type ledger map[string]float64

// tracedRep runs one study assembled from the layers' public functions, the
// way the facade assembles it, timing each layer boundary. Its dataset must
// equal the facade's for the same seed.
func tracedRep(w workload, seed uint64, tr *tracer) (rep, ledger, error) {
	var r rep
	lg := ledger{}
	t, err := startTier(w, seed, tr)
	if err != nil {
		return r, nil, err
	}
	defer t.close()
	addr, uploadAddr := "", ""
	if t != nil {
		wt, err := startWireTimer(t.addr, tr)
		if err != nil {
			return r, nil, err
		}
		defer wt.close()
		addr, uploadAddr = t.addr, wt.addr()
	}
	dep := deploy(w, seed, uploadAddr, tr)
	stopQueries := func() error { return nil }
	if w.liveQueries {
		if stopQueries, err = startLiveQueries(w, addr, &r); err != nil {
			return r, nil, err
		}
		defer stopQueries()
	}
	a0, start := totalAlloc(), time.Now()

	if err := dep.fleet.Run(); err != nil {
		return r, nil, err
	}

	var (
		folded   int
		foldTime time.Duration
	)
	if w.tier == direct {
		// The direct path reads each log into the dataset and folds it
		// into a private accumulator, merged into the study-wide one.
		r.ds = collect.NewDataset()
		agg := stream.NewCollect(stream.Config{})
		var mu sync.Mutex
		err = sim.RunShards(len(dep.loggers), w.config(seed).Workers, func(i int) error {
			id := dep.fleet.Devices[i].ID()
			data := dep.loggers[i].LogBytes()
			r.ds.Put(id, data)
			part := stream.NewCollect(stream.Config{})
			foldStart := time.Now()
			n := feedLog(part, id, data)
			d := time.Since(foldStart)
			mu.Lock()
			defer mu.Unlock()
			folded += n
			foldTime += d
			return agg.Merge(part)
		})
		if err != nil {
			return r, nil, err
		}
		fcStart := time.Now()
		r.study = analysis.FromCollect(agg)
		lg["analysis.from_collect_s"] = time.Since(fcStart).Seconds()
	} else {
		err = sim.RunShards(len(dep.loggers), w.config(seed).Workers, func(i int) error {
			data := dep.loggers[i].LogBytes()
			err := uploadFinal(tr, addr, dep.fleet.Devices[i].ID(), data)
			tr.mu.Lock()
			r.ops.finalUploads++
			if err != nil {
				r.ops.finalFailed++
			} else {
				lg["final_bytes"] += float64(len(data))
			}
			tr.mu.Unlock()
			return err
		})
		if err != nil {
			return r, nil, err
		}
		if err := t.err(); err != nil {
			return r, nil, err
		}
		r.ds = t.ds
		if t.fl != nil {
			mStart := time.Now()
			r.ds = t.fl.MergedDataset()
			lg["fleet.merge_s"] = time.Since(mStart).Seconds()
		}
		a, err := analyze(r.ds)
		if err != nil {
			return r, nil, err
		}
		r.study, folded, foldTime = a.study, a.records, a.fold
		lg["analysis.from_collect_s"] = a.finish.Seconds()
	}
	r.wall, r.alloc = time.Since(start), totalAlloc()-a0

	rStart := time.Now()
	renderReport(r.study)
	lg["report.render_s"] = time.Since(rStart).Seconds()

	if err := stopQueries(); err != nil {
		return r, nil, err
	}
	if foldTime > 0 {
		lg["stream.fold_records_per_s"] = float64(folded) / foldTime.Seconds()
	}
	r.hours = dep.fleet.ObservedHours()
	r.ops.addUploaders(dep.uploaders)
	layerCounters(lg, dep, r.hours)
	if t != nil {
		if t.fl != nil {
			lg["fleet.handoffs"] = float64(t.fl.Handoffs())
			lg["fleet.handoff_failures"] = float64(t.fl.HandoffFailures())
			lg["fleet.degraded_requests"] = float64(t.fl.DegradedRequests())
			lg["fleet.suspicions"] = float64(t.fl.Suspicions())
		} else {
			lg["collect.wal_syncs"] = float64(t.sup.Store().Syncs())
			r.liveErr = sameTables(t.live, r.study)
		}
	}
	lg["runtime.alloc_bytes"] = float64(r.alloc)
	if !w.liveQueries {
		// The query phase after the study is not part of the study call.
		err := tr.prof.pause(func() error { return postStudyQueries(w, &r, tr.timeQuery) })
		if err != nil {
			return r, nil, err
		}
	}
	return r, lg, r.fingerprint()
}

// layerCounters reads the counters the simulated layers keep.
func layerCounters(lg ledger, dep *deployment, hours float64) {
	var events, ipc, writes, logBytes uint64
	for i, d := range dep.fleet.Devices {
		events += dep.fleet.Engines[i].Fired()
		ipc += dep.ipc[i].total()
		writes += d.FS().Writes()
		logBytes += uint64(len(dep.loggers[i].LogBytes()))
	}
	var sent, retrans int64
	for _, u := range dep.uploaders {
		sent += u.BytesSent()
		retrans += u.BytesRetransmitted()
	}
	lg["sim.events_per_phone_hour"] = float64(events) / hours
	lg["symbos.ipc_msgs_per_phone_hour"] = float64(ipc) / hours
	lg["phone.fs_writes_per_phone_hour"] = float64(writes) / hours
	lg["core.log_bytes_per_phone_hour"] = float64(logBytes) / hours
	lg["collect.bytes_sent_per_phone_hour"] = (float64(sent) + lg["final_bytes"]) / hours
	lg["collect.bytes_retransmitted"] = float64(retrans)
}

// feedLog folds one device's log into an accumulator the way the facade's
// direct path does, returning the record count.
func feedLog(c *stream.Collect, id string, data []byte) int {
	n := 0
	f := &stream.Feeder{AddDevice: c.AddDevice, Observe: c.Observe}
	_ = f.Begin(id)
	_ = core.ScanRecords(data, func(r core.Record) error { n++; return f.Record(id, r) })
	f.Flush()
	return n
}

// uploadFinal ships a device's end-of-study log and retires its chunk
// stream, retrying the transient and below-quorum refusals the facade's own
// final upload rides out.
func uploadFinal(tr *tracer, addr, id string, data []byte) error {
	var err error
	for attempt := 0; attempt < 120; attempt++ {
		if attempt > 0 {
			time.Sleep(10 * time.Millisecond)
		}
		start := time.Now()
		err = collect.Upload(addr, id, data)
		if err == nil {
			err = collect.Fin(addr, id)
		}
		tr.since(&tr.final, start, err)
		if err == nil || !(collect.IsBelowQuorum(err) || collect.IsTransient(err)) {
			break
		}
	}
	if err != nil {
		return fmt.Errorf("final upload %s: %w", id, err)
	}
	return nil
}

// figure4Windows are the coalescence windows cmd/symfail sweeps.
var figure4Windows = []time.Duration{
	30 * time.Second, time.Minute, 2 * time.Minute, 5 * time.Minute,
	15 * time.Minute, time.Hour, 4 * time.Hour,
}

// renderReport renders the paper's section-6 report, as cmd/symfail does.
func renderReport(s *analysis.Study) int {
	n := 0
	for _, out := range []string{
		report.Figure2(s), report.MTBF(s), report.Table2(s), report.Figure3(s),
		report.Figure4Sweep(s, figure4Windows), report.Figure5(s), report.Table3(s),
		report.Figure6(s), report.Table4(s),
	} {
		n += len(out)
	}
	return n
}
