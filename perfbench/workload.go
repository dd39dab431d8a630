package main

import (
	"fmt"
	"time"

	"symfail"
	"symfail/internal/analysis"
	"symfail/internal/analysis/stream"
	"symfail/internal/collect"
	"symfail/internal/collect/fleet"
	"symfail/internal/core"
	"symfail/internal/phone"
	"symfail/internal/sim"
)

// tierKind is where a workload's logs travel.
type tierKind int

const (
	// direct reads every log off the simulated flash into the dataset:
	// no network, no server.
	direct tierKind = iota
	// shardedFleet uploads through fleet.Supervisor: shards behind the
	// device-hash router, with write-time quorum replication.
	shardedFleet
	// singleServer uploads to one durable collect.Supervisor whose live
	// record tap feeds a stream.LiveStudy that also answers QUERY.
	singleServer
)

// workload is one set of inputs the benchmark runs. The seed is not part of
// it: every run takes the seed as an argument.
type workload struct {
	name string
	// loop says how load arrives: whether callers wait for replies, and
	// at what rate or with how many clients.
	loop     string
	tier     tierKind
	phones   int
	duration time.Duration
	// workers is the study's worker count; 0 means one per CPU.
	workers     int
	uploadEvery time.Duration
	// servers, replicate and quorum shape the sharded fleet.
	servers, replicate, quorum int
	// With liveQueries an open-loop query client runs beside every study
	// at queryRate queries per second. Otherwise one closed-loop client
	// sends queriesPerStudy queries after each study to a read-only server
	// over the finished study. A run repeats studies until they hold at
	// least minQueries answers.
	queryRate       float64
	liveQueries     bool
	queriesPerStudy int
	minQueries      int
}

// Why each workload exists, and which layers it loads, is in README.md.
var workloads = []workload{
	{
		name: "sim-scale", tier: direct,
		loop:   "batch: one study call at a time, workers = nproc; after each study 500 queries from one closed-loop client on a read-only server",
		phones: 1000, duration: phone.StudyMonth / 4,
		queriesPerStudy: 500, minQueries: 1000,
	},
	{
		name: "fleet-study", tier: shardedFleet,
		loop:   "closed: workers = nproc, each worker's phone waits for every chunk ACK; after each study 2000 queries from one closed-loop client on a read-only server",
		phones: 25, duration: phone.StudyMonth, uploadEvery: 24 * time.Hour,
		servers: 3, replicate: 3, quorum: 2,
		queriesPerStudy: 2000, minQueries: 1000,
	},
	{
		name: "live-query", tier: singleServer,
		loop:   "open: one query client process at 100/s for the whole study, beside one worker's weekly uploads",
		phones: 100, duration: phone.StudyMonth, uploadEvery: 7 * 24 * time.Hour, workers: 1,
		queryRate: 100, liveQueries: true, minQueries: 1000,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// config is the study configuration the facade runs.
func (w workload) config(seed uint64) symfail.FieldStudyConfig {
	return symfail.FieldStudyConfig{
		Seed:        seed,
		Phones:      w.phones,
		Workers:     w.workers,
		Duration:    w.duration,
		JoinWindow:  w.duration / 4,
		UploadEvery: w.uploadEvery,
		Servers:     w.servers,
		Replicate:   w.replicate,
		Quorum:      w.quorum,
	}
}

// These salts must equal the facade's (symfail.go): the benchmark starts
// collection tiers itself, and they must draw the streams the facade's
// would, so its datasets stay byte-identical to the facade's.
const (
	collectorSeedSalt = 0x636f6c6c656374
	beatSeedSalt      = 0x62656174
)

// tier is a running collection tier the benchmark started itself.
type tier struct {
	addr string
	sup  *collect.Supervisor // singleServer
	ds   *collect.Dataset    // singleServer
	live *stream.LiveStudy   // singleServer
	fl   *fleet.Supervisor   // shardedFleet
}

// startTier starts the workload's collection tier (nil for direct). With a
// tracer the live tap and the query hook are timed.
func startTier(w workload, seed uint64, tr *tracer) (*tier, error) {
	switch w.tier {
	case shardedFleet:
		fl, err := fleet.New(fleet.Config{
			Servers:   w.servers,
			Rng:       sim.NewRand(seed ^ collectorSeedSalt),
			Replicate: w.replicate,
			Quorum:    w.quorum,
			BeatRng:   sim.NewRand(seed ^ beatSeedSalt),
		})
		if err != nil {
			return nil, err
		}
		return &tier{addr: fl.Addr(), fl: fl}, nil
	case singleServer:
		t := &tier{ds: collect.NewDataset(), live: stream.NewLiveStudy(stream.Config{})}
		observe, query := t.live.Observe, queryFn(t.live.Query)
		if tr != nil {
			observe, query = tr.timeObserve(observe), tr.timeQuery(query)
		}
		sup, err := collect.NewSupervisor("127.0.0.1:0", t.ds, collect.SupervisorConfig{
			Rng:      sim.NewRand(seed ^ collectorSeedSalt),
			OnRecord: observe,
			Query:    query,
		})
		if err != nil {
			return nil, err
		}
		t.sup, t.addr = sup, sup.Addr()
		return t, nil
	}
	return nil, nil
}

func (t *tier) close() error {
	if t == nil {
		return nil
	}
	if t.fl != nil {
		return t.fl.Close()
	}
	return t.sup.Close()
}

// err reports a restart or fleet failure the tier saw.
func (t *tier) err() error {
	if t == nil {
		return nil
	}
	if t.fl != nil {
		return t.fl.Err()
	}
	return t.sup.Err()
}

// deployment is a built fleet with its loggers and uploaders: what the
// facade builds before it simulates.
type deployment struct {
	fleet     *phone.Fleet
	loggers   []*core.Logger
	uploaders []*collect.Uploader
	ipc       []ipcCounter // traced only
}

// deploy builds the fleet and installs a logger on every phone, plus an
// uploader towards addr when there is a collection tier — in the order the
// facade does, so the simulation is the facade's byte for byte. With a
// tracer it also counts IPC per boot.
func deploy(w workload, seed uint64, addr string, tr *tracer) *deployment {
	cfg := w.config(seed)
	dep := &deployment{fleet: phone.NewFleet(phone.FleetConfig{
		Seed:       cfg.Seed,
		Phones:     cfg.Phones,
		Duration:   cfg.Duration,
		JoinWindow: cfg.JoinWindow,
		Workers:    cfg.Workers,
	})}
	if tr != nil {
		dep.ipc = make([]ipcCounter, len(dep.fleet.Devices))
	}
	for i, d := range dep.fleet.Devices {
		l := core.Install(d, core.Config{})
		dep.loggers = append(dep.loggers, l)
		if tr != nil {
			d.OnBoot(dep.ipc[i].boot)
		}
		if addr == "" {
			continue
		}
		// The facade heals transport windows on the sharded path only.
		var transport collect.Transport
		if w.tier == shardedFleet {
			transport = collect.RetryNetTransport{}
		}
		u := collect.AttachUploaderWith(d, addr, l.Config().LogPath, collect.UploaderConfig{Every: w.uploadEvery, Transport: transport})
		dep.uploaders = append(dep.uploaders, u)
	}
	return dep
}

// setup builds what a study needs before it simulates — the collection
// tier, the fleet, its loggers and uploaders — and tears it down again,
// returning the build time.
func setup(w workload, seed uint64) (time.Duration, error) {
	start := time.Now()
	t, err := startTier(w, seed, nil)
	if err != nil {
		return 0, err
	}
	addr := ""
	if t != nil {
		addr = t.addr
	}
	deploy(w, seed, addr, nil)
	d := time.Since(start)
	return d, t.close()
}

// analyzed is a finished study with what its analysis cost.
type analyzed struct {
	study   *analysis.Study
	records int
	// fold is the time to stream the dataset into the accumulator; finish
	// the time analysis.FromCollect took.
	fold, finish time.Duration
}

// analyze streams a collected dataset into the study-wide accumulator one
// device at a time and finishes the Study — the facade's final analysis
// over a collection tier's dataset.
func analyze(ds *collect.Dataset) (analyzed, error) {
	var a analyzed
	c := stream.NewCollect(stream.Config{})
	f := &stream.Feeder{AddDevice: c.AddDevice, Observe: c.Observe}
	start := time.Now()
	err := ds.Stream(f.Begin, func(id string, r core.Record) error {
		a.records++
		return f.Record(id, r)
	})
	f.Flush()
	a.fold = time.Since(start)
	if err != nil {
		return a, fmt.Errorf("analyze: %w", err)
	}
	start = time.Now()
	a.study = analysis.FromCollect(c)
	a.finish = time.Since(start)
	return a, nil
}

// countRecords returns how many records a dataset holds.
func countRecords(ds *collect.Dataset) (int, error) {
	n := 0
	err := ds.Stream(nil, func(string, core.Record) error { n++; return nil })
	return n, err
}
