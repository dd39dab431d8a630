package core

import (
	"strings"
	"time"

	"symfail/internal/phone"
	"symfail/internal/sim"
	"symfail/internal/symbos"
)

// Config tunes the logger. Zero values fall back to the defaults the study
// deployment used.
type Config struct {
	// HeartbeatPeriod is the spacing of ALIVE beats (default: the device's
	// configured heartbeat period). Shorter periods detect freezes with
	// finer off-time resolution at the price of flash wear — the ablation
	// bench sweeps this.
	HeartbeatPeriod time.Duration
	// RunAppPeriod is the Running Applications Detector sampling period.
	RunAppPeriod time.Duration
	// ActivityPeriod is the Log Engine collection period.
	ActivityPeriod time.Duration
	// MaxLogBytes caps the consolidated Log File on flash. When an append
	// would exceed the cap, the oldest complete records are dropped
	// (front-truncated at a record boundary) — study-era phones had
	// single-digit megabytes of flash to spare. Zero means 1 MiB.
	MaxLogBytes int
	// Paths for the on-flash files (defaults: the Default*Path constants).
	LogPath, BeatsPath, RunAppPath, ActivityPath, PowerPath string
}

func (c Config) withDefaults(d *phone.Device) Config {
	if c.HeartbeatPeriod <= 0 {
		c.HeartbeatPeriod = d.Config().HeartbeatPeriod
	}
	if c.HeartbeatPeriod <= 0 {
		c.HeartbeatPeriod = 5 * time.Minute
	}
	if c.RunAppPeriod <= 0 {
		c.RunAppPeriod = d.Config().RunAppSamplePeriod
	}
	if c.RunAppPeriod <= 0 {
		c.RunAppPeriod = 10 * time.Minute
	}
	if c.ActivityPeriod <= 0 {
		c.ActivityPeriod = 30 * time.Minute
	}
	if c.MaxLogBytes <= 0 {
		c.MaxLogBytes = 1 << 20
	}
	if c.LogPath == "" {
		c.LogPath = DefaultLogPath
	}
	if c.BeatsPath == "" {
		c.BeatsPath = DefaultBeatsPath
	}
	if c.RunAppPath == "" {
		c.RunAppPath = DefaultRunAppPath
	}
	if c.ActivityPath == "" {
		c.ActivityPath = DefaultActivityPath
	}
	if c.PowerPath == "" {
		c.PowerPath = DefaultPowerPath
	}
	return c
}

// Logger is the failure data logger installed on one device. It restarts
// its daemon at every boot (the phone start-up launches it, Figure 1) and
// accumulates its records on the device's flash filesystem.
type Logger struct {
	dev *phone.Device
	cfg Config

	// Scratch encode buffers: every heartbeat and record append reuses
	// them instead of allocating a payload and a frame per write, and they
	// outlive the boot, so a fresh daemon does not grow them again. One
	// daemon runs at a time (a boot halts the previous kernel), it is
	// single-threaded (one engine), and the file server only borrows a
	// write's bytes for the call — the flash store copies what it keeps —
	// so reuse is safe.
	payload []byte
	buf     []byte
	// owedPayload and owedBuf encode owed ALIVE beats (daemon.settle). They
	// are apart from payload and buf because a settle runs at the top of
	// another write's flash operation, inside its file-server call, while
	// that write's frame is still in buf.
	owedPayload []byte
	owedBuf     []byte
}

// Install attaches the logger to a device. It takes effect from the next
// boot, so call it before the device's enrolment boot fires.
func Install(d *phone.Device, cfg Config) *Logger {
	l := &Logger{dev: d, cfg: cfg.withDefaults(d)}
	d.OnBoot(func(d *phone.Device) { l.startDaemon(d) })
	return l
}

// Device returns the instrumented device.
func (l *Logger) Device() *phone.Device { return l.dev }

// Config returns the resolved logger configuration.
func (l *Logger) Config() Config { return l.cfg }

// Records parses the consolidated Log File as currently on flash.
func (l *Logger) Records() []Record {
	data, ok := l.dev.FS().Read(l.cfg.LogPath)
	if !ok {
		return nil
	}
	return ParseRecords(data)
}

// LogBytes returns the raw Log File (what the collection infrastructure
// uploads).
func (l *Logger) LogBytes() []byte {
	data, _ := l.dev.FS().Read(l.cfg.LogPath)
	return data
}

// daemon is the per-boot state of the logger application.
type daemon struct {
	l    *Logger
	dev  *phone.Device
	k    *symbos.Kernel
	proc *symbos.Process

	appArch  *symbos.Session
	dbLog    *symbos.Session
	sysAgent *symbos.Session
	files    *symbos.FileSession

	runApp    *symbos.ActiveObject
	raTimer   *symbos.Timer
	logEngine *symbos.ActiveObject
	leTimer   *symbos.Timer
	powerMgr  *symbos.ActiveObject
	battProp  *symbos.Property

	// beatsLen is the daemon's own record of the beats file's length (-1:
	// absent), so a beat is one append instead of a size query plus an
	// append. It is seeded from the boot-time read of the beats file and
	// advanced by writeFile/appendFile and storeBeat, through which every
	// write of the daemon goes, only when the store accepted it. That is
	// exact because nothing else writes the beats file while the daemon
	// runs: a torn write needs a power loss, which ends this daemon; a
	// quota reject leaves the file whole; bit rot keeps its length.
	beatsLen int

	// Owed heartbeats. While the daemon runs, its ALIVE beats fall on the
	// fixed grid boot + k·HeartbeatPeriod, and only the next boot reads
	// them. So no timer writes them as they fall due: the daemon owes
	// them, and settle writes them, oldest first, just before anything
	// can observe the flash (DESIGN.md §19). nextBeat is the oldest beat
	// still owed; beats counts every ALIVE beat that has come due since
	// boot, stored or not.
	nextBeat sim.Time
	beats    uint64
}

// startDaemon launches the logger application on the freshly booted kernel.
func (l *Logger) startDaemon(d *phone.Device) *daemon {
	k := d.Kernel()
	dm := &daemon{l: l, dev: d, k: k, beatsLen: -1, nextBeat: k.Now().Add(l.cfg.HeartbeatPeriod)}
	dm.proc = k.StartProcess("FailureLogger", false)
	t := dm.proc.Main()
	dm.appArch = d.AppArchServer().Connect(t)
	dm.dbLog = d.DBLogServer().Connect(t)
	dm.sysAgent = d.SysAgentServer().Connect(t)
	dm.files = d.FileServer().Connect(t)

	// Boot-time work of the Panic Detector: repair the Log File from its
	// on-flash bytes (a battery pull can tear the last append), classify
	// how the previous session ended from the last heartbeat record,
	// consolidate a boot record, and reset the heartbeat.
	k.Exec(t, "logger-boot", func() {
		recovered := dm.recoverLog()
		dm.consolidateBoot(recovered)
		dm.writeBeat(BeatAlive)
	})

	// Owed heartbeats settle before any flash operation and before the
	// kernel halts or terminates a process — this daemon's or the file
	// server's, after which no owed beat could be stored. The daemon's
	// own active objects also settle the beat at their instant: the
	// paper's Heartbeat AO had the top priority, so it ran first whenever
	// it fell due with one of them.
	settle := dm.settle
	d.FS().SetOwner(settle)
	k.SetStopHook(settle)

	// Running Applications Detector AO.
	dm.runApp = t.NewActiveObject("RunningApplicationsDetector", 5, func(int) {
		dm.settleThrough(true)
		dm.sampleRunningApps()
		dm.raTimer.After(l.cfg.RunAppPeriod)
	})
	dm.raTimer = symbos.NewTimer(dm.runApp)
	k.Exec(t, "logger-arm-runapp", func() { dm.raTimer.After(l.cfg.RunAppPeriod) })

	// Log Engine AO.
	dm.logEngine = t.NewActiveObject("LogEngine", 5, func(int) {
		dm.settleThrough(true)
		dm.collectActivity()
		dm.leTimer.After(l.cfg.ActivityPeriod)
	})
	dm.leTimer = symbos.NewTimer(dm.logEngine)
	k.Exec(t, "logger-arm-logengine", func() { dm.leTimer.After(l.cfg.ActivityPeriod) })

	// Power Manager AO: subscribes to the System Agent's battery property
	// and refreshes the power file on every publication, so a LOWBT
	// shutdown can be told apart from a failure (section 5.1).
	dm.battProp = d.Properties().Attach(symbos.PropBatteryStatus)
	dm.powerMgr = t.NewActiveObject("PowerManager", 5, func(int) {
		dm.settleThrough(true)
		dm.recordPower()
		dm.battProp.Subscribe(dm.powerMgr)
	})
	k.Exec(t, "logger-arm-power", func() {
		dm.recordPower()
		dm.battProp.Subscribe(dm.powerMgr)
	})

	// Panic Detector: RDebug notification from the Kernel Server.
	k.SubscribeRDebug(dm.onPanic)

	// Power Manager shutdown path: when Symbian lets applications
	// complete their tasks before power-off, record why.
	d.RegisterShutdownHook(func(reason phone.ShutdownReason) {
		k.Exec(t, "logger-shutdown", func() {
			switch reason {
			case phone.ReasonLowBattery:
				dm.writeBeat(BeatLowBat)
			case phone.ReasonLoggerOff:
				dm.writeBeat(BeatMAOff)
			default:
				dm.writeBeat(BeatReboot)
			}
		})
	})
	return dm
}

// maxBeatsBytes caps the append-only heartbeat file; past it the file is
// compacted down to the newest beat (only the last beat matters to the
// boot-time detector).
const maxBeatsBytes = 4 << 10

// writeBeat records a boot or shutdown beat on flash, through the file
// server like any other Symbian application. Beats are *appended* as
// checksummed frames rather than rewriting the file in place: a torn
// append only damages the newest frame, and recovery falls back to the
// previous beat — rewriting in place would risk destroying the very record
// the freeze detector depends on. Owed ALIVE beats land first, so the
// compaction choice counts them.
func (dm *daemon) writeBeat(kind BeatKind) {
	dm.settle()
	l := dm.l
	l.payload = AppendBeat(l.payload[:0], Beat{Kind: kind, Time: int64(dm.k.Now())})
	l.buf = AppendFrame(l.buf[:0], l.payload)
	frame := l.buf
	if dm.compacts(frame) {
		dm.writeFile(l.cfg.BeatsPath, frame)
		return
	}
	dm.appendFile(l.cfg.BeatsPath, frame)
}

// compacts reports whether a beat frame must replace the beats file
// rather than extend it past maxBeatsBytes.
func (dm *daemon) compacts(frame []byte) bool {
	return dm.beatsLen >= 0 && dm.beatsLen+len(frame) > maxBeatsBytes
}

// settle stores the ALIVE beats owed strictly before now. It is the view
// of everything outside the daemon's own active objects: a low-battery
// shutdown on a battery tick that falls on a beat instant ran before the
// Heartbeat AO's timer, so that beat was never written.
func (dm *daemon) settle() { dm.settleThrough(false) }

// settleThrough stores, oldest first, every ALIVE beat owed before now,
// and the one at now too when atNow is set. Each beat is one write straight
// to the flash store, with the frame, compaction rule and length tracking
// of writeBeat: the same store writes in the same order as when a timer
// wrote each beat through the file server, so flash wear, bit-rot draws,
// quota checks and the write a battery pull tears all replay unchanged.
// A beat that falls due while the file server is dead is lost, as its
// request would have failed; a halted kernel or a terminated daemon owes
// nothing more, because the stop hook settled up to that instant.
func (dm *daemon) settleThrough(atNow bool) {
	now := dm.k.Now()
	if dm.nextBeat > now || (dm.nextBeat == now && !atNow) {
		return
	}
	if dm.k.Halted() || !dm.proc.Alive() {
		return
	}
	stored := dm.dev.FileServer().Server().Process().Alive()
	for dm.nextBeat < now || (atNow && dm.nextBeat == now) {
		at := dm.nextBeat
		dm.nextBeat = at.Add(dm.l.cfg.HeartbeatPeriod)
		dm.beats++
		if stored {
			dm.storeBeat(at)
		}
	}
}

// storeBeat writes the ALIVE beat owed at instant at to the flash store.
func (dm *daemon) storeBeat(at sim.Time) {
	l, fs := dm.l, dm.dev.FS()
	l.owedPayload = AppendBeat(l.owedPayload[:0], Beat{Kind: BeatAlive, Time: int64(at)})
	l.owedBuf = AppendFrame(l.owedBuf[:0], l.owedPayload)
	frame := l.owedBuf
	if dm.compacts(frame) {
		if fs.Write(l.cfg.BeatsPath, frame) {
			dm.beatsLen = len(frame)
		}
		return
	}
	if fs.Append(l.cfg.BeatsPath, frame) {
		dm.beatsLen = max(dm.beatsLen, 0) + len(frame)
	}
}

// writeFile and appendFile are the daemon's file-server writes; like
// storeBeat, both keep beatsLen in step with what the store holds.
func (dm *daemon) writeFile(path string, data []byte) {
	if dm.files.WriteFile(path, data) == symbos.KErrNone && path == dm.l.cfg.BeatsPath {
		dm.beatsLen = len(data)
	}
}

func (dm *daemon) appendFile(path string, data []byte) {
	if dm.files.AppendFile(path, data) == symbos.KErrNone && path == dm.l.cfg.BeatsPath {
		dm.beatsLen = max(dm.beatsLen, 0) + len(data)
	}
}

// recoverLog repairs the consolidated Log File from its on-flash bytes:
// intact frames are kept, torn tails truncated, corrupt regions excised.
// The logger sees only what a real logger could see — the repair works
// from flash content, never from simulator ground truth.
func (dm *daemon) recoverLog() Recovery {
	data, code := dm.files.ReadFile(dm.l.cfg.LogPath)
	if code != symbos.KErrNone || len(data) == 0 {
		return Recovery{}
	}
	// A log whose bytes are all intact frames needs no repair, and the
	// boot record carries a tally only after one, so a clean log costs a
	// frame walk and builds nothing.
	intact := 0
	if lost := walkFrames(data, func(frame []byte) bool {
		intact += len(frame)
		return true
	}); lost == 0 && intact == len(data) {
		return Recovery{}
	}
	rec := RecoverLog(data) // Dirty, by the walk above
	dm.writeFile(dm.l.cfg.LogPath, rec.Clean)
	return rec
}

// consolidateBoot reads the last heartbeat record and appends the boot
// record that section 5.2's decision procedure implies, carrying the log
// recovery tally when the previous session's file needed repair.
func (dm *daemon) consolidateBoot(recovered Recovery) {
	now := dm.k.Now()
	rec := Record{
		Kind:      KindBoot,
		Time:      int64(now),
		Boot:      dm.dev.BootCount(),
		OSVersion: dm.dev.OSVersion(),
	}
	if recovered.Dirty {
		rec.LogSalvaged = recovered.Salvaged
		rec.LogLost = recovered.Lost
	}
	if data, code := dm.files.ReadFile(dm.l.cfg.BeatsPath); code == symbos.KErrNone {
		dm.beatsLen = len(data)
		if beat, valid := ParseBeat(data); valid {
			rec.PrevBeat = beat.Kind
			rec.PrevTime = beat.Time
			rec.OffSeconds = now.Sub(sim.Time(beat.Time)).Seconds()
			switch beat.Kind {
			case BeatAlive:
				// Power vanished with no orderly shutdown: the phone was
				// frozen and the battery was pulled.
				rec.Detected = DetectedFreeze
			case BeatReboot:
				rec.Detected = DetectedShutdown
			case BeatLowBat:
				rec.Detected = DetectedLowBattery
			case BeatMAOff:
				rec.Detected = DetectedLoggerOff
			}
		} else {
			rec.Detected = DetectedFirstBoot
		}
	} else {
		rec.Detected = DetectedFirstBoot
	}
	dm.append(rec)
}

// onPanic is the Panic Detector: for every RDebug notification it gathers
// the running applications and the current phone activity, and appends a
// consolidated panic record.
func (dm *daemon) onPanic(p *symbos.Panic) {
	rec := Record{
		Kind:     KindPanic,
		Time:     int64(p.Time),
		Category: string(p.Category),
		PType:    p.Type,
		Apps:     dm.queryRunningApps(),
		Activity: dm.currentActivity(p.Time),
	}
	dm.append(rec)
}

// sampleRunningApps refreshes the runapp file with the comma-separated
// application list, handing the server's reply straight to the file server
// (an unanswered query writes an empty list).
func (dm *daemon) sampleRunningApps() {
	resp, code := dm.appArch.Query(phone.OpListApps, "")
	if code != symbos.KErrNone {
		resp = nil
	}
	dm.writeFile(dm.l.cfg.RunAppPath, resp)
}

// queryRunningApps asks the Application Architecture Server for the
// running application IDs.
func (dm *daemon) queryRunningApps() []string {
	resp, code := dm.appArch.Query(phone.OpListApps, "")
	if code != symbos.KErrNone || len(resp) == 0 {
		return nil
	}
	return strings.Split(string(resp), ",")
}

// collectActivity refreshes the activity file from the Database Log Server.
func (dm *daemon) collectActivity() {
	resp, code := dm.dbLog.Query(phone.OpRecentActivity, "")
	if code != symbos.KErrNone {
		return
	}
	dm.writeFile(dm.l.cfg.ActivityPath, resp)
}

// recordPower refreshes the power file from the System Agent.
func (dm *daemon) recordPower() {
	if batt, code := dm.sysAgent.Query(phone.OpBatteryStatus, ""); code == symbos.KErrNone {
		dm.writeFile(dm.l.cfg.PowerPath, batt)
	}
}

// currentActivity resolves the registered activity (voice call or message)
// in progress at the given instant, or "unspecified" — the Database Log
// Server registers only calls and messages (Table 3).
func (dm *daemon) currentActivity(at sim.Time) string {
	resp, code := dm.dbLog.Query(phone.OpRecentActivity, "")
	if code != symbos.KErrNone {
		return "unspecified"
	}
	for _, rec := range phone.DecodeActivity(string(resp)) {
		if rec.Start.After(at) {
			continue
		}
		if rec.Ongoing() || !rec.End.Before(at) {
			return string(rec.Kind)
		}
	}
	return "unspecified"
}

// append adds a record to the consolidated Log File as a checksummed
// frame, rotating when the flash budget is exhausted. Unlike the beats
// file's, the Log File's length is asked of the file server rather than
// tracked: the daemon is not its only writer (UserReporter appends its
// reports straight to flash), and records are rare next to heartbeats.
func (dm *daemon) append(rec Record) {
	l := dm.l
	l.payload = AppendRecord(l.payload[:0], rec)
	l.buf = AppendFrame(l.buf[:0], l.payload)
	frame := l.buf
	if n, code := dm.files.SizeFile(l.cfg.LogPath); code == symbos.KErrNone &&
		n+len(frame) > l.cfg.MaxLogBytes {
		// Rotation is the one path that still has to materialise the
		// file: it keeps the newest half of the records.
		if data, rcode := dm.files.ReadFile(l.cfg.LogPath); rcode == symbos.KErrNone {
			dm.writeFile(l.cfg.LogPath, rotateFramed(data, l.cfg.MaxLogBytes/2))
		}
	}
	dm.appendFile(l.cfg.LogPath, frame)
}

// rotate drops the oldest records so at most keep bytes remain, cutting at
// a record (line) boundary so the survivor still parses.
func rotate(data []byte, keep int) []byte {
	if len(data) <= keep {
		return data
	}
	cut := len(data) - keep
	for cut < len(data) && data[cut-1] != '\n' {
		cut++
	}
	return append([]byte(nil), data[cut:]...)
}
