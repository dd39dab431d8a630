// Package symfail reproduces "How Do Mobile Phones Fail? A Failure Data
// Analysis of Symbian OS Smart Phones" (Cinque, Cotroneo, Kalbarczyk, Iyer —
// DSN 2007) end to end:
//
//   - a behavioural Symbian OS simulator (internal/symbos) and phone/user
//     model (internal/phone) stand in for the 25 physical handsets;
//   - the paper's failure data logger (internal/core) runs as a daemon on
//     every simulated phone;
//   - logs travel to a collection server (internal/collect);
//   - the analysis pipeline (internal/analysis) regenerates every table and
//     figure of section 6, and the forum-study pipeline (internal/forum)
//     regenerates section 4;
//   - internal/report renders them as text.
//
// This package is the public face: RunFieldStudy runs the instrumented
// fleet and returns the analysed study; RunForumStudy runs the web-forum
// pipeline. See DESIGN.md for the system inventory and EXPERIMENTS.md for
// paper-versus-measured results.
package symfail

import (
	"fmt"
	"sync"
	"time"

	"symfail/internal/analysis"
	"symfail/internal/analysis/stream"
	"symfail/internal/collect"
	"symfail/internal/collect/fleet"
	"symfail/internal/core"
	"symfail/internal/forum"
	"symfail/internal/phone"
	"symfail/internal/sim"
)

// FieldStudyConfig parameterises a full instrumented deployment.
type FieldStudyConfig struct {
	// Seed makes the whole study reproducible.
	Seed uint64
	// Phones is the fleet size (default 25, the paper's deployment).
	Phones int
	// Workers bounds how many device shards simulate concurrently: 0 means
	// GOMAXPROCS, 1 forces the fully serial run. Any worker count produces
	// byte-identical studies — fleet construction is always serial, every
	// device owns a private engine and RNG streams, and collection merges
	// are canonical and order-independent — so Workers trades nothing but
	// wall-clock time. See DESIGN.md §9.
	Workers int
	// Duration is the observation window (default 14 months).
	Duration time.Duration
	// JoinWindow staggers enrolment (default 9 months).
	JoinWindow time.Duration
	// Device optionally overrides the per-device calibration.
	Device func(seed uint64) phone.Config
	// Logger tunes the on-phone logger.
	Logger core.Config
	// Analysis tunes the pipeline thresholds (paper defaults when zero).
	Analysis analysis.Options
	// CollectorAddr, when non-empty, uploads every phone's log to a
	// collection server at that address over TCP instead of reading the
	// logs directly off the simulated flash.
	CollectorAddr string
	// UploadEvery additionally attaches a periodic on-device uploader
	// (simulated time) when a collector is configured. Periodic uploads
	// are what preserve the study data across service-visit master
	// resets: reading only the final flash loses everything logged before
	// a reset. Zero means a single upload at study end.
	UploadEvery time.Duration
	// Servers, on the RunFieldStudyWithFleet path, is the collection-fleet
	// shard count (0 or 1 runs one durable server; >1 shards the fleet
	// behind a device-hash router). Ignored by RunFieldStudy.
	Servers int
	// Replicate / Quorum, on the RunFieldStudyWithFleet path with
	// Servers > 1, set the write-time replication factor R and write quorum
	// W (fleet.Config.Replicate / Quorum). 0 takes the fleet defaults
	// (R=3 capped at the live membership, W=min(2,R)); Replicate=1 switches
	// write-time replication off — the pre-quorum fleet, byte-exact.
	Replicate int
	Quorum    int
	// WithUserReporter additionally installs the output-failure reporting
	// extension (core.UserReporter) on every phone.
	WithUserReporter bool
	// WithDExc additionally installs the panic-only D_EXC baseline
	// collector on every phone; its logs land in BaselineDataset.
	WithDExc bool
	// Adversity arms the deterministic fault-injection layer (flash and
	// network). The zero value runs the pre-adversity study bit for bit.
	Adversity AdversityConfig
	// Progress, when set, is called after each device's log folds into the
	// study-wide streaming accumulator during final collection: done devices
	// out of total, plus a Peek at the running event counts. Calls are
	// serialised under a mutex; with parallel workers the completion order
	// is scheduling-dependent, but the final (done == total) Peek is not.
	Progress func(done, total int, p stream.Peek)
	// Monitor, when set on the RunFieldStudyWithFleet path, is wired to the
	// fleet's live record tap (fleet.Config.OnRecord) and counts records as
	// they are acknowledged mid-study. Monitor is the one accumulator whose
	// counts tolerate the tap's at-least-once delivery; see its doc.
	// Ignored by RunFieldStudy.
	Monitor *stream.Monitor
	// LiveStudy, when set on the RunFieldStudyWithFleet path, is wired to
	// the same live record tap and additionally answers QUERY on the
	// fleet's address (current MTBF, decaying panic leaderboard, windowed
	// freeze rate) while the study runs, at any server count. LiveStudy
	// deduplicates the tap's at-least-once delivery — crash replays and
	// replica copies alike; see stream.LiveStudy.
	LiveStudy *stream.LiveStudy

	// healTransport, set internally by the sharded fleet path, rides
	// uploads on collect.RetryNetTransport: fleet kill/handoff windows are
	// host-time phenomena (milliseconds) that must not surface to the
	// simulated uploader, whose shortest retry is half an hour of simulated
	// time — a window crossing a master reset would destroy records the
	// single-server study delivers, breaking dataset equivalence. Injected
	// network faults are unaffected (they ride above the retry layer).
	healTransport bool
}

// AdversityConfig calibrates the fault-injection layer. Everything is a
// pure function of the study seed: the same seed and config produce the
// same faults, byte for byte.
type AdversityConfig struct {
	// Flash arms the flash fault model on every phone (torn writes on
	// battery pull, bit rot, flash-full quota).
	Flash phone.FlashFaults
	// Net wraps every phone's uploader transport in deterministic network
	// adversity (refused connections, mid-transfer drops, payload
	// corruption, lost acknowledgements).
	Net collect.NetFaults
	// RetryBase/RetryMax arm the uploader's exponential backoff between
	// periodic ticks (zero RetryBase leaves retrying to the next tick).
	RetryBase, RetryMax time.Duration
	// ServerCrash injects collection-server crashes on the
	// RunFieldStudyWithFleet path: the fleet supervisor kills RNG-drawn
	// subsets of its servers (and router, with Servers > 1) at drawn
	// crashpoints mid-study and restarts them from their write-ahead logs.
	ServerCrash collect.CrashFaults
	// ServerCompactWAL overrides the WAL size that triggers server
	// snapshot compaction (zero keeps collect.DefaultCompactEvery); small
	// values make short chaos runs exercise the compaction crashpoints.
	ServerCompactWAL int
	// FleetJoinAfter / FleetLeaveAfter, on the RunFieldStudyWithFleet path
	// with Servers > 1, respectively add and retire one shard after that
	// many routed requests — a mid-study scale-up/scale-down with live
	// rebalancing (fleet.Config.JoinAfter / LeaveAfter).
	FleetJoinAfter  int
	FleetLeaveAfter int
}

// Enabled reports whether any adversity is armed.
func (c AdversityConfig) Enabled() bool {
	return c.Flash.Enabled() || c.Net.Enabled() || c.ServerCrash.Enabled()
}

// DefaultFieldStudyConfig mirrors the paper's deployment.
func DefaultFieldStudyConfig(seed uint64) FieldStudyConfig {
	return FieldStudyConfig{
		Seed:       seed,
		Phones:     25,
		Duration:   phone.StudyDuration,
		JoinWindow: 9 * phone.StudyMonth,
	}
}

// FieldStudy is a completed deployment: the simulated fleet, its loggers,
// the collected dataset and the analysed study.
type FieldStudy struct {
	Fleet   *phone.Fleet
	Loggers []*core.Logger
	Dataset *collect.Dataset
	Study   *analysis.Study

	// Reporters holds the user-report extensions (nil entries when the
	// extension was not enabled).
	Reporters []*core.UserReporter
	// BaselineDataset holds the D_EXC panic-only logs when enabled.
	BaselineDataset *collect.Dataset
	// Uploaders holds the per-device periodic uploaders (aligned with
	// Fleet.Devices) on the RunFieldStudyWithFleet path; nil otherwise.
	// Their counters — retries, resumes, reconnects, bytes retransmitted —
	// are the client-side ledger of what the injected adversity cost.
	Uploaders []*collect.Uploader
}

// RunFieldStudy builds the fleet, installs the logger on every phone, runs
// the observation window, collects the logs and analyses them.
func RunFieldStudy(cfg FieldStudyConfig) (*FieldStudy, error) {
	if cfg.Phones <= 0 {
		cfg.Phones = 25
	}
	if cfg.Duration <= 0 {
		cfg.Duration = phone.StudyDuration
	}
	if cfg.JoinWindow < 0 {
		return nil, fmt.Errorf("symfail: negative join window")
	}

	fleet := phone.NewFleet(phone.FleetConfig{
		Seed:       cfg.Seed,
		Phones:     cfg.Phones,
		Duration:   cfg.Duration,
		JoinWindow: cfg.JoinWindow,
		Device:     cfg.Device,
		Flash:      cfg.Adversity.Flash,
		Workers:    cfg.Workers,
	})
	loggers := make([]*core.Logger, 0, len(fleet.Devices))
	var reporters []*core.UserReporter
	var baselines []*core.DExc
	var uploaders []*collect.Uploader
	for _, d := range fleet.Devices {
		l := core.Install(d, cfg.Logger)
		loggers = append(loggers, l)
		if cfg.WithUserReporter {
			reporters = append(reporters, core.InstallUserReporter(d, core.UserReporterConfig{}))
		}
		if cfg.WithDExc {
			baselines = append(baselines, core.InstallDExc(d, ""))
		}
		if cfg.CollectorAddr != "" && cfg.UploadEvery > 0 {
			ucfg := collect.UploaderConfig{
				Every:     cfg.UploadEvery,
				RetryBase: cfg.Adversity.RetryBase,
				RetryMax:  cfg.Adversity.RetryMax,
			}
			var inner collect.Transport
			if cfg.healTransport {
				inner = collect.RetryNetTransport{}
			}
			if cfg.Adversity.Net.Enabled() {
				// One Split child drives the injected faults, another the
				// retry jitter; both are derived here, in device order, so
				// the whole adversity run is a function of the seed.
				ucfg.Transport = collect.NewFaultyTransport(inner, cfg.Adversity.Net, d.SplitRand())
				ucfg.Rng = d.SplitRand()
			} else {
				ucfg.Transport = inner
			}
			uploaders = append(uploaders, collect.AttachUploaderWith(d, cfg.CollectorAddr, l.Config().LogPath, ucfg))
		}
	}
	if err := fleet.Run(); err != nil {
		return nil, fmt.Errorf("symfail: run fleet: %w", err)
	}

	// Final collection is sharded like the run itself: each device's log
	// travels independently, and both Dataset.Put and the server's chunk
	// merge are canonical per device, so collection order cannot change the
	// collected bytes. Each shard also folds its device into a private
	// streaming accumulator and merges it into the study-wide one — device
	// sets are disjoint, so the merge order cannot change the analysis
	// (DESIGN.md §11) — which is what gives Progress its online view and
	// the direct path its single-pass Study.
	ds := collect.NewDataset()
	total := len(loggers)
	// On the TCP path the accumulator is only needed for Progress — the
	// Study is re-analysed from the server's dataset afterwards.
	needAcc := cfg.CollectorAddr == "" || cfg.Progress != nil
	agg := stream.NewCollect(cfg.Analysis)
	var (
		aggMu sync.Mutex
		done  int
	)
	err := sim.RunShards(len(loggers), cfg.Workers, func(i int) error {
		id := fleet.Devices[i].ID()
		data := loggers[i].LogBytes()
		if cfg.CollectorAddr != "" {
			if err := uploadFinal(cfg.CollectorAddr, id, data); err != nil {
				return err
			}
		} else {
			ds.Put(id, data)
		}
		if !needAcc {
			return nil
		}
		part := stream.NewCollect(cfg.Analysis)
		feedLog(part, id, data)
		aggMu.Lock()
		defer aggMu.Unlock()
		if err := agg.Merge(part); err != nil {
			return err
		}
		done++
		if cfg.Progress != nil {
			cfg.Progress(done, total, agg.Peek())
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// The direct path's Study comes straight from the merged accumulator.
	// On the TCP path the local dataset is empty — the data lives on the
	// caller's collection fleet (RunFieldStudyWithFleet re-analyses from
	// there) — so the legacy empty Study is preserved.
	var study *analysis.Study
	if cfg.CollectorAddr == "" {
		study = analysis.FromCollect(agg)
	} else {
		study = analysis.New(ds.AllRecords(), cfg.Analysis)
	}
	out := &FieldStudy{
		Fleet: fleet, Loggers: loggers, Dataset: ds, Study: study,
		Reporters: reporters, Uploaders: uploaders,
	}
	if cfg.WithDExc {
		out.BaselineDataset = collect.NewDataset()
		for i, x := range baselines {
			out.BaselineDataset.Put(fleet.Devices[i].ID(), x.LogBytes())
		}
	}
	return out, nil
}

// feedLog streams one device's raw log bytes into a collect accumulator
// through a sorting Feeder (the cursor input contract), with only this one
// device's records materialised.
func feedLog(c *stream.Collect, id string, data []byte) {
	f := &stream.Feeder{AddDevice: c.AddDevice, Observe: c.Observe}
	_ = f.Begin(id)
	_ = core.ScanRecords(data, func(r core.Record) error { return f.Record(id, r) })
	f.Flush()
}

// collectFromDataset rebuilds the study-wide accumulator from a collected
// dataset one device at a time: Dataset.Stream keeps a single device's log
// bytes in memory, and the Feeder's per-device record buffer is the only
// other allocation that scales with the data.
func collectFromDataset(ds *collect.Dataset, opts analysis.Options) (*stream.Collect, error) {
	c := stream.NewCollect(opts)
	f := &stream.Feeder{AddDevice: c.AddDevice, Observe: c.Observe}
	err := ds.Stream(f.Begin, f.Record)
	f.Flush()
	if err != nil {
		return nil, err
	}
	return c, nil
}

// uploadFinal ships a device's end-of-study log, riding out collector
// restarts: an injected server crash can land mid-upload, in which case
// the client sees a dead connection, the supervisor replays the WAL and
// rebinds, and the retry re-sends the payload — harmless, because the
// server's merge is idempotent. A quorum-replicated fleet can also refuse
// the write outright while too many shards are suspected mid-restart;
// those retryable ERRs get a larger budget, because a below-quorum window
// clears on the fleet's own heartbeat cadence rather than a single shard
// rebind. The FIN afterwards retires the device's chunk stream on the
// server (best-effort bookkeeping; the data itself is already merged and
// acknowledged).
func uploadFinal(addr, id string, data []byte) error {
	var err error
	for attempt := 0; attempt < 600; attempt++ {
		if attempt > 0 {
			// Host-time pause: the collector is a real TCP server
			// restarting in host time, not simulated time. The pause never
			// influences simulation state — the fleet has already run.
			pause := time.Duration(attempt*attempt) * time.Millisecond
			if pause > 10*time.Millisecond {
				pause = 10 * time.Millisecond
			}
			time.Sleep(pause)
		}
		if err = collect.Upload(addr, id, data); err == nil {
			_ = collect.Fin(addr, id)
			return nil
		}
		if collect.IsBelowQuorum(err) {
			continue // clears on the fleet's heartbeat cadence: full budget
		}
		// Fail fast on protocol rejections — a parsed ERR is a real answer.
		// Transport-level windows (dead connection, unreachable shard) get
		// a generous budget: on a loaded single-CPU host a restarting
		// shard's WAL replay can easily outlive the first few capped pauses.
		if attempt >= 8 && !collect.IsTransient(err) {
			break
		}
		if attempt >= 120 {
			break
		}
	}
	return fmt.Errorf("symfail: upload %s: %w", id, err)
}

// collectorSeedSalt derives the collection tier's RNG stream from the
// study seed while keeping it independent of every device stream: killing
// the server more or less often must never change what happens on a phone.
const collectorSeedSalt = 0x636f6c6c656374

// beatSeedSalt derives the fleet heartbeat jitter stream — independent of
// both the device streams and the collection tier's kill/crashpoint stream,
// so beat cadence can never perturb either.
const beatSeedSalt = 0x62656174

// RunFieldStudyWithFleet runs the study uploading logs over TCP to a local
// collection fleet, returning the study and the fleet supervisor; it is
// the one TCP study path. The caller owns the supervisor's lifetime. Phones
// upload weekly (unless cfg.UploadEvery says otherwise), so data logged
// before a service-visit master reset survives on the servers. With
// cfg.Servers <= 1 the fleet is one durable server with no router in
// front; more shard it behind a device-hash router.
//
// Every server is durable: each acknowledged verb is write-ahead-logged on
// a crash-faithful store before the ACK reaches the wire. When
// cfg.Adversity.ServerCrash is armed the fleet supervisor kills RNG-drawn
// subsets of {shards..., router} at the server crashpoints plus the
// fleet's handoff/rebalance points, dying shards hand their acked state to
// surviving peers, and FleetJoinAfter/FleetLeaveAfter rebalance membership
// mid-study. Whatever dies, the merged dataset holds every acknowledged
// record exactly once; with Workers:1 and one server the whole
// crash/recover history is deterministic in the seed. cfg.Monitor and
// cfg.LiveStudy watch the study live through the fleet's record tap, and
// cfg.LiveStudy answers QUERY on the fleet's address.
func RunFieldStudyWithFleet(cfg FieldStudyConfig) (*FieldStudy, *fleet.Supervisor, error) {
	servers := cfg.Servers
	if servers < 1 {
		servers = 1
	}
	fcfg := fleet.Config{
		Servers:      servers,
		Crash:        cfg.Adversity.ServerCrash,
		CompactEvery: cfg.Adversity.ServerCompactWAL,
		Rng:          sim.NewRand(cfg.Seed ^ collectorSeedSalt),
		JoinAfter:    cfg.Adversity.FleetJoinAfter,
		LeaveAfter:   cfg.Adversity.FleetLeaveAfter,
		Replicate:    cfg.Replicate,
		Quorum:       cfg.Quorum,
		BeatRng:      sim.NewRand(cfg.Seed ^ beatSeedSalt),
	}
	if cfg.Monitor != nil {
		fcfg.OnRecord = cfg.Monitor.Observe
	}
	if cfg.LiveStudy != nil {
		live := cfg.LiveStudy
		fcfg.Query = live.Query
		if mon := fcfg.OnRecord; mon != nil {
			fcfg.OnRecord = func(id string, r core.Record) {
				mon(id, r)
				live.Observe(id, r)
			}
		} else {
			fcfg.OnRecord = live.Observe
		}
	}
	fl, err := fleet.New(fcfg)
	if err != nil {
		return nil, nil, err
	}
	cfg.CollectorAddr = fl.Addr()
	// Only the sharded fleet heals transport windows: the single server's
	// request count feeds its crash schedule, so even an extra retry would
	// shift the kill pattern off the pinned golden.
	cfg.healTransport = servers > 1
	if cfg.UploadEvery <= 0 {
		cfg.UploadEvery = 7 * 24 * time.Hour
	}
	fs, err := RunFieldStudy(cfg)
	if err != nil {
		_ = fl.Close()
		return nil, nil, err
	}
	if err := fl.Err(); err != nil {
		_ = fl.Close()
		return nil, nil, err
	}
	// Analyse the fleet-wide merged dataset — the union over every shard,
	// live and departed, with the canonical merge deduplicating replicas.
	fs.Dataset = fl.MergedDataset()
	c, err := collectFromDataset(fs.Dataset, cfg.Analysis)
	if err != nil {
		_ = fl.Close()
		return nil, nil, err
	}
	fs.Study = analysis.FromCollect(c)
	return fs, fl, nil
}

// RunForumStudy generates the synthetic web-forum corpus and runs the
// section 4 pipeline over it.
func RunForumStudy(seed uint64) *forum.Report {
	return forum.Analyze(forum.Generate(forum.DefaultGeneratorConfig(seed)))
}

// ForumCorpus exposes the raw synthetic corpus for the examples.
func ForumCorpus(seed uint64) []forum.Post {
	return forum.Generate(forum.DefaultGeneratorConfig(seed))
}
