package main

import (
	"encoding/json"
	"errors"
	"runtime"
	"sort"
	"time"

	"symfail"
	"symfail/internal/analysis"
	"symfail/internal/analysis/stream"
	"symfail/internal/collect"
)

// ops is the failure ledger behind failed_op_share: every operation a run
// attempted that could fail or be refused.
type ops struct {
	chunkAttempts, chunkFailed, quorumRefusals int
	finalUploads, finalFailed                  int
	queries, queryFailed                       int
}

func (o *ops) addUploaders(us []*collect.Uploader) {
	for _, u := range us {
		o.chunkAttempts += u.Attempts()
		o.chunkFailed += u.Attempts() - u.Successes()
		o.quorumRefusals += u.QuorumRefusals()
	}
}

func (o *ops) add(p ops) {
	o.chunkAttempts += p.chunkAttempts
	o.chunkFailed += p.chunkFailed
	o.quorumRefusals += p.quorumRefusals
	o.finalUploads += p.finalUploads
	o.finalFailed += p.finalFailed
	o.queries += p.queries
	o.queryFailed += p.queryFailed
}

// attempted and failed count quorum refusals inside the chunk attempts they
// refused.
func (o ops) attempted() int { return o.chunkAttempts + o.finalUploads + o.queries }
func (o ops) failed() int    { return o.chunkFailed + o.finalFailed + o.queryFailed }

func (o ops) failedShare() float64 {
	if o.attempted() == 0 {
		return 0
	}
	return float64(o.failed()) / float64(o.attempted())
}

// rep is one study call's outcome.
type rep struct {
	wall    time.Duration
	hours   float64
	alloc   uint64
	crc     uint32
	records int
	ds      *collect.Dataset
	study   *analysis.Study
	ops     ops
	queries openLoopRun
	// liveErr is set when a live study's final tables diverge from the
	// batch analysis of the dataset it watched.
	liveErr error
}

func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// plainRep runs one study through the facade with nothing timed but the
// study call itself — the end-to-end measurement.
func plainRep(w workload, seed uint64) (rep, error) {
	cfg := w.config(seed)
	var r rep
	runtime.GC()
	a0, start := totalAlloc(), time.Now()
	switch w.tier {
	case direct:
		fs, err := symfail.RunFieldStudy(cfg)
		if err != nil {
			return r, err
		}
		r.wall, r.alloc = time.Since(start), totalAlloc()-a0
		r.hours, r.ds, r.study = fs.Fleet.ObservedHours(), fs.Dataset, fs.Study
	case shardedFleet:
		fs, fl, err := symfail.RunFieldStudyWithFleet(cfg)
		if err != nil {
			return r, err
		}
		r.wall, r.alloc = time.Since(start), totalAlloc()-a0
		if err := fl.Close(); err != nil {
			return r, err
		}
		r.hours, r.ds, r.study = fs.Fleet.ObservedHours(), fs.Dataset, fs.Study
		r.ops.addUploaders(fs.Uploaders)
		r.ops.finalUploads = w.phones
	case singleServer:
		t, err := startTier(w, seed, nil)
		if err != nil {
			return r, err
		}
		defer t.close()
		cfg.CollectorAddr = t.addr
		stopQueries, err := startLiveQueries(w, t.addr, &r)
		if err != nil {
			return r, err
		}
		a0, start = totalAlloc(), time.Now()
		fs, err := symfail.RunFieldStudy(cfg)
		if err == nil {
			var a analyzed
			a, err = analyze(t.ds)
			r.study = a.study
		}
		r.wall, r.alloc = time.Since(start), totalAlloc()-a0
		if serr := stopQueries(); err == nil {
			err = serr
		}
		if err != nil {
			return r, err
		}
		if err := t.err(); err != nil {
			return r, err
		}
		r.hours, r.ds = fs.Fleet.ObservedHours(), t.ds
		r.ops.addUploaders(fs.Uploaders)
		r.ops.finalUploads = w.phones
		r.liveErr = sameTables(t.live, r.study)
	}
	if !w.liveQueries {
		if err := postStudyQueries(w, &r, nil); err != nil {
			return r, err
		}
	}
	return r, r.fingerprint()
}

// fingerprint fills in the dataset CRC and record count.
func (r *rep) fingerprint() error {
	r.crc = r.ds.CRC32C()
	n, err := countRecords(r.ds)
	r.records = n
	return err
}

// postStudyQueries serves a finished study the way symfail -serve-queries
// does when no live tap watched it: a LiveStudy fed from the dataset behind
// a read-only server, queried back to back by one closed-loop client. hook,
// when set, wraps the query hook. The live tier's tables must equal the
// study's.
func postStudyQueries(w workload, r *rep, hook func(queryFn) queryFn) error {
	live := stream.NewLiveStudy(stream.Config{})
	f := &stream.Feeder{Observe: live.Observe}
	err := r.ds.Stream(f.Begin, f.Record)
	f.Flush()
	if err != nil {
		return err
	}
	q := queryFn(live.Query)
	if hook != nil {
		q = hook(q)
	}
	srv, err := collect.NewServerWith("127.0.0.1:0", collect.NewDataset(), collect.ServerConfig{Query: q})
	if err != nil {
		return err
	}
	r.queries.latency = closedLoop(hostClock{}, w.queriesPerStudy, querySender(srv.Addr()))
	r.ops.queries, r.ops.queryFailed = len(r.queries.latency.samples), r.queries.latency.failed
	r.liveErr = sameTables(live, r.study)
	return srv.Close()
}

type queryFn = func(name string, args []string) (string, error)

// errTablesDiverged marks a live tier whose tables disagree with the batch
// analysis of the same data.
var errTablesDiverged = errors.New("live tables differ from the batch analysis of the collected dataset")

// sameTables checks the live tier's exact tables against the batch
// study's. Devices that never logged a record reach the batch study but
// never the live tap, so only devices with records are compared.
func sameTables(live *stream.LiveStudy, study *analysis.Study) error {
	got := live.Tables()
	want := study.Snapshot()
	want.Devices = withRecords(want.Devices, got.Devices)
	a, err := json.Marshal(got)
	if err != nil {
		return err
	}
	b, err := json.Marshal(want)
	if err != nil {
		return err
	}
	if string(a) != string(b) {
		return errTablesDiverged
	}
	return nil
}

// withRecords keeps the devices of all that also appear in seen.
func withRecords(all, seen []string) []string {
	in := make(map[string]bool, len(seen))
	for _, id := range seen {
		in[id] = true
	}
	var out []string
	for _, id := range all {
		if in[id] {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}
