package phone

import (
	"fmt"
	"time"

	"symfail/internal/sim"
	"symfail/internal/symbos"
)

// DeviceState is the coarse phone state.
type DeviceState int

// Device states.
const (
	StateOff DeviceState = iota + 1
	StateOn
	StateFrozen
)

// String renders the state.
func (s DeviceState) String() string {
	switch s {
	case StateOff:
		return "off"
	case StateOn:
		return "on"
	case StateFrozen:
		return "frozen"
	default:
		return fmt.Sprintf("DeviceState(%d)", int(s))
	}
}

// ShutdownReason tells shutdown hooks why the phone is going down. Battery
// pulls never reach the hooks — power is simply gone, which is what lets
// the logger infer a freeze from a trailing ALIVE record.
type ShutdownReason string

// Shutdown reasons, mirroring the heartbeat record types of section 5.2.
const (
	ReasonSelfShutdown ShutdownReason = "self"
	ReasonUser         ShutdownReason = "user"
	ReasonLowBattery   ShutdownReason = "low-battery"
	ReasonLoggerOff    ShutdownReason = "logger-off"
)

// Device is one simulated smart phone across its whole study enrolment:
// boots, shutdowns, freezes, battery pulls, user workload and injected
// faults. A fresh symbos kernel is created on every boot; the flash
// filesystem and the oracle persist across boots.
type Device struct {
	id     string
	eng    *sim.Engine
	rng    *sim.Rand
	cfg    Config
	fs     *FS
	oracle *Oracle
	faults *faultModel

	state      DeviceState
	bootGen    int
	battery    float64
	kernel     *symbos.Kernel
	apps       map[string]*App
	lastBootAt sim.Time
	enrolledAt sim.Time
	finalized  bool

	appArch  *symbos.Server
	dbLog    *symbos.Server
	sysAgent *symbos.Server
	msgSrv   *symbos.Server
	fileSrv  *symbos.FileServer
	props    *symbos.PropertyBus

	// Each firmware server builds its reply descriptor in its own buffer,
	// reused across requests and boots; a reply stays valid until the next
	// request to the same server (the symbos.Message contract).
	appArchReply, dbLogReply, sysAgentReply, msgReply []byte
	appNames                                          []string

	// activityLog is the Database Log Server's event log. dbLogFresh says
	// dbLogReply already holds its OpRecentActivity encoding; every change
	// to the log clears it.
	activityLog     []ActivityRecord
	dbLogFresh      bool
	currentActivity Activity
	activityToken   int

	lazy *deviceLazy // see lazyState

	onBoot        []func(*Device)
	shutdownHooks []func(ShutdownReason)
	outputHooks   []func(OutputFailure)

	// recentFailures holds the instants of recent freezes/self-shutdowns
	// for the service-visit decision; servicePending survives the reboot
	// that the triggering failure causes.
	recentFailures []sim.Time
	servicePending bool
	serviced       int
}

// deviceLazy is what a device builds once, on first use during the study,
// rather than per event: NewDevice and setup do no extra work for it.
type deviceLazy struct {
	// The activity mix in draw order (pickActivity). The mix is fixed
	// once the device exists: ServicePhone rescales rates, never the mix.
	mixKinds   []Activity
	mixWeights []float64
	// labels are the engine-event labels (label).
	labels [numLabels]string
}

// lazyState returns the device's deviceLazy, allocating it on first use.
func (d *Device) lazyState() *deviceLazy {
	if d.lazy == nil {
		d.lazy = &deviceLazy{}
	}
	return d.lazy
}

// eventLabel names one of the device's recurring engine events.
type eventLabel int

// The device's recurring engine events. Labels are diagnostic only; each
// is "<prefix> <device id>".
const (
	lblActivity eventLabel = iota
	lblActivityEnd
	lblNight
	lblDayOff
	lblCharge
	lblBattery
	lblSpontaneous
	lblOutputFailure
	lblPanicOp
	lblBoot
	lblService
	lblBatteryPull
	lblPanicFreeze
	lblPanicShutdown
	lblBurstPanic
	numLabels
)

var labelPrefixes = [numLabels]string{
	lblActivity:      "activity ",
	lblActivityEnd:   "activity-end ",
	lblNight:         "night ",
	lblDayOff:        "dayoff ",
	lblCharge:        "charge ",
	lblBattery:       "battery ",
	lblSpontaneous:   "spontaneous ",
	lblOutputFailure: "output-failure ",
	lblPanicOp:       "panic-op ",
	lblBoot:          "boot ",
	lblService:       "service ",
	lblBatteryPull:   "battery-pull ",
	lblPanicFreeze:   "panic-freeze ",
	lblPanicShutdown: "panic-shutdown ",
	lblBurstPanic:    "burst-panic ",
}

// label returns the device's label for event l, built on first use rather
// than concatenated for every event scheduled.
func (d *Device) label(l eventLabel) string {
	lz := d.lazyState()
	if lz.labels[l] == "" {
		lz.labels[l] = labelPrefixes[l] + d.id
	}
	return lz.labels[l]
}

// OutputFailure is a user-visible value failure: the device delivered the
// wrong output (wrong volume, wrong reminder time, inaccurate charge
// indicator, ...). The base logger cannot detect these automatically;
// the core.UserReporter extension subscribes to them through the hook.
type OutputFailure struct {
	Time     sim.Time
	Detail   string
	Activity Activity
}

// NewDevice creates a phone. It is off until Enroll schedules its first
// boot.
func NewDevice(id string, eng *sim.Engine, cfg Config) *Device {
	d := &Device{
		id:              id,
		eng:             eng,
		rng:             sim.NewRand(cfg.Seed),
		cfg:             cfg,
		fs:              NewFS(),
		oracle:          &Oracle{},
		state:           StateOff,
		battery:         1,
		apps:            make(map[string]*App),
		currentActivity: ActIdle,
	}
	// Split only when faults are armed: an idle adversity config must not
	// perturb the device's RNG stream.
	if cfg.Flash.Enabled() {
		d.fs.EnableFaults(cfg.Flash, d.rng.Split())
	}
	return d
}

// SplitRand derives an independent child RNG from the device stream (for
// per-device adversity consumers like the faulty network transport). Call
// order is part of the deterministic contract.
func (d *Device) SplitRand() *sim.Rand { return d.rng.Split() }

// ID returns the device identifier.
func (d *Device) ID() string { return d.id }

// Engine returns the discrete-event engine.
func (d *Device) Engine() *sim.Engine { return d.eng }

// Now returns the current virtual time.
func (d *Device) Now() sim.Time { return d.eng.Now() }

// Config returns the device calibration.
func (d *Device) Config() Config { return d.cfg }

// OSVersion returns the Symbian OS version the phone runs.
func (d *Device) OSVersion() string { return d.cfg.OSVersion }

// FS returns the flash filesystem.
func (d *Device) FS() *FS { return d.fs }

// Oracle returns the ground-truth recorder.
func (d *Device) Oracle() *Oracle { return d.oracle }

// State returns the coarse device state.
func (d *Device) State() DeviceState { return d.state }

// Battery returns the battery level in [0, 1].
func (d *Device) Battery() float64 { return d.battery }

// Kernel returns the kernel of the current boot (nil before first boot).
func (d *Device) Kernel() *symbos.Kernel { return d.kernel }

// Properties returns the publish-and-subscribe property bus of the current
// boot (battery level/status, call state).
func (d *Device) Properties() *symbos.PropertyBus { return d.props }

// CurrentActivity returns what the user is doing right now.
func (d *Device) CurrentActivity() Activity { return d.currentActivity }

// BootCount returns how many times the phone has booted.
func (d *Device) BootCount() int { return d.bootGen }

// EnrolledAt returns the study enrolment instant.
func (d *Device) EnrolledAt() sim.Time { return d.enrolledAt }

// OnBoot registers an installer invoked at every boot (the failure logger
// uses this to start its daemon). Installers registered after enrolment
// take effect from the next boot.
func (d *Device) OnBoot(fn func(*Device)) { d.onBoot = append(d.onBoot, fn) }

// RegisterShutdownHook registers a callback invoked when the phone shuts
// down in an orderly fashion (self-shutdown, user power-off, low battery).
// Hooks are cleared at every boot; daemons re-register from their OnBoot
// installer. Battery pulls bypass the hooks entirely.
func (d *Device) RegisterShutdownHook(fn func(ShutdownReason)) {
	d.shutdownHooks = append(d.shutdownHooks, fn)
}

// RegisterOutputFailureHook registers a callback invoked when the user
// *could notice* a value failure (the device misbehaved in a user-visible
// way). Like shutdown hooks, these are cleared at every boot. Whether the
// user actually notices and reports is the subscriber's model to apply.
func (d *Device) RegisterOutputFailureHook(fn func(OutputFailure)) {
	d.outputHooks = append(d.outputHooks, fn)
}

// Enroll schedules the phone's first boot of the study at the given time.
func (d *Device) Enroll(at sim.Time) {
	d.enrolledAt = at
	d.faults = newFaultModel(d)
	d.eng.At(at, "enroll "+d.id, d.boot)
}

// boot powers the phone on: fresh kernel, firmware servers, daemon
// installers, workload.
func (d *Device) boot() {
	if d.state == StateOn || d.finalized {
		return
	}
	d.bootGen++
	d.state = StateOn
	d.lastBootAt = d.eng.Now()
	d.shutdownHooks = nil
	d.outputHooks = nil
	d.apps = make(map[string]*App)
	d.currentActivity = ActIdle
	d.kernel = symbos.NewKernel(d.eng)
	d.kernel.SetPanicHandler(d.handlePanic)
	d.props = symbos.NewPropertyBus(d.kernel)
	d.startServers()
	// Phones on the charger overnight come up full in the morning.
	if tod := d.eng.Now().TimeOfDay(); tod > 4*time.Hour && tod < 11*time.Hour {
		d.battery = 1
	}
	d.oracle.record(TruthBoot, d.eng.Now(), "", ActIdle)
	for _, fn := range d.onBoot {
		fn(d)
	}
	if d.servicePending {
		d.scheduleServiceVisit()
	}
	d.startWorkload()
}

// accountUptime accumulates powered-on hours into the oracle.
func (d *Device) accountUptime() {
	d.oracle.ObservedHours += d.eng.Now().Sub(d.lastBootAt).Hours()
}

// Shutdown powers the phone off in an orderly fashion: Symbian lets
// applications complete their tasks before the power drops, which is the
// window in which the logger's heartbeat records the shutdown reason. The
// phone boots again offFor later.
func (d *Device) Shutdown(reason ShutdownReason, offFor time.Duration) {
	if d.state != StateOn {
		return
	}
	for _, fn := range d.shutdownHooks {
		fn(reason)
	}
	d.powerDown(offFor)
}

// powerDown is the common tail of every way the phone loses power.
func (d *Device) powerDown(offFor time.Duration) {
	d.endCurrentActivity()
	d.accountUptime()
	d.kernel.Halt()
	d.state = StateOff
	d.eng.After(offFor, d.label(lblBoot), d.boot)
}

// SelfShutdown reboots the phone on its own initiative (a silent failure).
func (d *Device) SelfShutdown(cause string) {
	if d.state != StateOn {
		return
	}
	d.oracle.record(TruthSelfShutdown, d.eng.Now(), cause, d.currentActivity)
	d.noteFailureForService()
	off := d.rng.LogNormalDuration(d.cfg.SelfShutdownOffMedian, d.cfg.SelfShutdownOffSigma)
	d.Shutdown(ReasonSelfShutdown, off)
}

// noteFailureForService tracks failure clustering; a fed-up user takes the
// phone in for service (the highest-severity recovery of section 4).
func (d *Device) noteFailureForService() {
	if d.cfg.ServiceFailureThreshold <= 0 {
		return
	}
	now := d.eng.Now()
	d.recentFailures = append(d.recentFailures, now)
	keep := d.recentFailures[:0]
	for _, t := range d.recentFailures {
		if now.Sub(t) <= d.cfg.ServiceWindow {
			keep = append(keep, t)
		}
	}
	d.recentFailures = keep
	if len(d.recentFailures) < d.cfg.ServiceFailureThreshold {
		return
	}
	if !d.rng.Bool(d.cfg.ServiceProb) {
		return
	}
	d.recentFailures = nil
	// The failure that tripped the decision takes the phone down first;
	// the visit is scheduled from the next boot.
	d.servicePending = true
}

// scheduleServiceVisit runs the pending service trip within the next day
// or so of phone-on time.
func (d *Device) scheduleServiceVisit() {
	gen := d.bootGen
	d.eng.After(d.rng.ExpDuration(18*time.Hour), d.label(lblService), func() {
		if !d.live(gen) {
			return // retried from the next boot; servicePending persists
		}
		if d.servicePending {
			d.servicePending = false
			d.ServicePhone()
		}
	})
}

// ServicePhone models the service-centre visit: master reset (the flash is
// wiped — the logger's files are gone, which is exactly why the study's
// collection infrastructure uploads periodically) plus a firmware update
// that reduces the defect rates.
func (d *Device) ServicePhone() {
	if d.state != StateOn {
		return
	}
	d.serviced++
	d.oracle.record(TruthServiceVisit, d.eng.Now(), "master reset + firmware update", d.currentActivity)
	d.cfg.PanicOpportunityPerHour *= d.cfg.ServiceFixFactor
	d.cfg.SpontaneousFreezePerHour *= d.cfg.ServiceFixFactor
	d.cfg.SpontaneousShutdownPerHour *= d.cfg.ServiceFixFactor
	off := d.cfg.ServiceOffDuration + d.rng.ExpDuration(12*time.Hour)
	// The shutdown hooks run first (the heartbeat records REBOOT), but
	// the subsequent master reset wipes that record with everything else.
	d.Shutdown(ReasonUser, off)
	d.fs.MasterReset()
}

// ServiceVisits returns how many times the phone has been serviced.
func (d *Device) ServiceVisits() int { return d.serviced }

// Freeze locks the phone up: the kernel halts, nothing (including the
// logger) runs, and after an impatience delay the user pulls the battery.
func (d *Device) Freeze(cause string) {
	if d.state != StateOn {
		return
	}
	d.oracle.record(TruthFreeze, d.eng.Now(), cause, d.currentActivity)
	d.noteFailureForService()
	d.accountUptime()
	d.state = StateFrozen
	d.kernel.Halt()
	wait := d.rng.LogNormalDuration(d.cfg.FreezeImpatienceMedian, d.cfg.FreezeImpatienceSigma)
	d.eng.After(wait, d.label(lblBatteryPull), func() {
		if d.state != StateFrozen {
			return
		}
		d.oracle.record(TruthBatteryPull, d.eng.Now(), cause, d.currentActivity)
		// Power vanishes mid-write: the write in flight may tear.
		d.fs.Crash()
		d.state = StateOff
		off := d.rng.LogNormalDuration(d.cfg.BatteryPullOffMedian, d.cfg.BatteryPullOffSigma)
		d.eng.After(off, d.label(lblBoot), d.boot)
	})
}

// Finalize ends the device's participation in the study: remaining uptime
// is accounted and no further boot will happen. Call once, at study end.
func (d *Device) Finalize() {
	if d.finalized {
		return
	}
	if d.state == StateOn {
		d.accountUptime()
		d.state = StateOff
		if d.kernel != nil {
			d.kernel.Halt()
		}
	}
	d.finalized = true
}

// handlePanic is the kernel recovery policy: record the panic with its
// ground-truth context, then let the fault model decide the outcome
// (terminate the application, cascade, freeze, or reboot).
func (d *Device) handlePanic(p *symbos.Panic, proc *symbos.Process) {
	if d.state != StateOn {
		return
	}
	d.oracle.Panics = append(d.oracle.Panics, TruthPanic{
		Panic:    *p,
		Activity: d.currentActivity,
		Apps:     d.RunningApps(),
		Burst:    d.faults.inBurst,
	})
	d.faults.afterPanic(p, proc)
}
