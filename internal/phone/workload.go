package phone

import (
	"time"

	"symfail/internal/sim"
	"symfail/internal/symbos"
)

// meanInterval converts an hourly rate into a mean inter-arrival duration.
// Tiny rates would overflow time.Duration (int64 nanoseconds caps at ~292
// years); anything rarer than once per ~114 years is "never" within a
// study, reported as ok=false.
func meanInterval(ratePerHour float64) (time.Duration, bool) {
	if ratePerHour <= 0 {
		return 0, false
	}
	hours := 1 / ratePerHour
	const maxHours = 1e6
	if hours > maxHours {
		return 0, false
	}
	return time.Duration(hours * float64(time.Hour)), true
}

// startWorkload schedules everything that happens while the phone is on:
// user activities, the nightly power-off decision, deliberate daytime power
// cycles, battery drain, spontaneous failures and panic opportunities.
// Every scheduled callback is guarded by the boot generation so that events
// queued before a shutdown are inert afterwards.
func (d *Device) startWorkload() {
	gen := d.bootGen

	d.scheduleNextActivity(gen)
	d.scheduleNightCheck(gen)
	d.scheduleDayOff(gen)
	d.scheduleEveningCharge(gen)
	d.scheduleBatteryTick(gen)
	d.scheduleSpontaneous(gen, true)
	d.scheduleSpontaneous(gen, false)
	d.scheduleOutputFailures(gen)
	d.schedulePanicOpportunity(gen)
}

// live reports whether a callback scheduled in boot generation gen should
// still run.
func (d *Device) live(gen int) bool {
	return d.state == StateOn && d.bootGen == gen && !d.finalized
}

// weekend reports whether the current simulated day is a weekend day
// (days 5 and 6 of each 7-day week).
func (d *Device) weekend() bool {
	dow := d.eng.Now().Day() % 7
	return dow == 5 || dow == 6
}

// wakeHour returns today's wake hour (weekends start later).
func (d *Device) wakeHour() float64 {
	if d.weekend() {
		return d.cfg.WakeHour + d.cfg.WeekendWakeDelayHours
	}
	return d.cfg.WakeHour
}

// awake reports whether the user is in their waking window.
func (d *Device) awake() bool {
	h := d.eng.Now().TimeOfDay().Hours()
	return h >= d.wakeHour() && h < d.cfg.SleepHour
}

// untilWake returns the delay to the next waking window start.
func (d *Device) untilWake() time.Duration {
	tod := d.eng.Now().TimeOfDay()
	wake := time.Duration(d.wakeHour() * float64(time.Hour))
	if tod < wake {
		return wake - tod
	}
	return 24*time.Hour - tod + wake
}

// User activities ------------------------------------------------------

func (d *Device) scheduleNextActivity(gen int) {
	wakingHours := d.cfg.SleepHour - d.cfg.WakeHour
	rate := d.cfg.ActivitiesPerDay
	if d.weekend() && d.cfg.WeekendActivityFactor > 0 {
		rate *= d.cfg.WeekendActivityFactor
	}
	meanGap := time.Duration(wakingHours / rate * float64(time.Hour))
	delay := d.rng.ExpDuration(meanGap)
	if !d.awake() {
		delay = d.untilWake() + d.rng.ExpDuration(meanGap/2)
	}
	d.eng.After(delay, d.label(lblActivity), func() {
		if !d.live(gen) {
			return
		}
		if d.awake() && d.currentActivity == ActIdle {
			d.beginActivity(gen, d.pickActivity())
		}
		d.scheduleNextActivity(gen)
	})
}

// pickActivity draws an activity class from the configured mix.
func (d *Device) pickActivity() Activity {
	lz := d.lazyState()
	if lz.mixKinds == nil {
		lz.mixKinds = make([]Activity, 0, len(d.cfg.ActivityMix))
		// Deterministic order: iterate a fixed list, not the map.
		for _, a := range allActivities {
			if w, ok := d.cfg.ActivityMix[a]; ok && w > 0 {
				lz.mixKinds = append(lz.mixKinds, a)
				lz.mixWeights = append(lz.mixWeights, w)
			}
		}
	}
	idx := d.rng.WeightedIndex(lz.mixWeights)
	if idx < 0 {
		return ActIdle
	}
	return lz.mixKinds[idx]
}

// allActivities fixes the iteration order over activity classes.
var allActivities = []Activity{
	ActVoiceCall, ActMessage, ActContacts, ActCamera, ActBluetooth,
	ActNav, ActBrowseFS, ActClock, ActAudio,
}

// beginActivity opens the activity's applications, exercises their healthy
// code paths, and schedules the end of the activity.
func (d *Device) beginActivity(gen int, act Activity) {
	d.currentActivity = act
	d.activityToken++
	token := d.activityToken
	apps := activityApps[act]
	// The foreground application always opens; companion applications
	// (e.g. the call Log next to Telephone) only sometimes — on a real
	// phone the user does not open the log for every call. This keeps the
	// mode of Figure 6 at one application.
	d.LaunchApp(apps[0])
	for _, name := range apps[1:] {
		if d.rng.Bool(0.32) {
			d.LaunchApp(name)
		}
	}
	// Only voice calls and messages are registered on the Symbian
	// Database Log Server (Table 3: "the only ones registered").
	if act == ActVoiceCall || act == ActMessage {
		d.recordActivityStart(act)
	}
	if act == ActVoiceCall {
		d.props.Set(symbos.PropCallState, 1)
	}
	if a := d.apps[apps[0]]; a != nil && a.Alive() {
		a.perform(act)
	}
	// Battery: activities drain extra charge.
	d.battery -= 0.002
	median := d.cfg.ActivityMedianDuration[act]
	if median <= 0 {
		median = time.Minute
	}
	dur := d.rng.LogNormalDuration(median, d.cfg.ActivitySigma)
	d.eng.After(dur, d.label(lblActivityEnd), func() {
		if !d.live(gen) || d.activityToken != token {
			return
		}
		d.finishActivity(act)
	})
}

// finishActivity closes the database-log record and the activity's
// applications (each may linger in the background).
func (d *Device) finishActivity(act Activity) {
	if act == ActVoiceCall || act == ActMessage {
		d.recordActivityEnd(act)
	}
	if act == ActVoiceCall {
		d.props.Set(symbos.PropCallState, 0)
	}
	for _, name := range activityApps[act] {
		if !d.rng.Bool(d.cfg.LingerProb) {
			d.CloseApp(name)
		}
	}
	d.currentActivity = ActIdle
}

// endCurrentActivity force-closes the activity record on power loss.
func (d *Device) endCurrentActivity() {
	if d.currentActivity == ActVoiceCall || d.currentActivity == ActMessage {
		d.recordActivityEnd(d.currentActivity)
	}
	d.currentActivity = ActIdle
	d.activityToken++
}

// Night and day power cycles -------------------------------------------

func (d *Device) scheduleNightCheck(gen int) {
	tod := d.eng.Now().TimeOfDay()
	sleep := time.Duration(d.cfg.SleepHour * float64(time.Hour))
	delay := sleep - tod
	if delay <= 0 {
		delay += 24 * time.Hour
	}
	delay += d.rng.ExpDuration(10 * time.Minute)
	d.eng.After(delay, d.label(lblNight), func() {
		if !d.live(gen) {
			return
		}
		if d.rng.Bool(d.cfg.NightOffProb) {
			off := d.cfg.NightOffDuration +
				time.Duration(d.rng.Norm(0, float64(d.cfg.NightOffJitter)))
			if off < time.Hour {
				off = time.Hour
			}
			d.oracle.record(TruthUserShutdown, d.eng.Now(), "night", d.currentActivity)
			d.Shutdown(ReasonUser, off)
			return
		}
		d.scheduleNightCheck(gen)
	})
}

func (d *Device) scheduleDayOff(gen int) {
	mean, ok := meanInterval(d.cfg.DayOffPerHour)
	if !ok {
		return
	}
	d.eng.After(d.rng.ExpDuration(mean), d.label(lblDayOff), func() {
		if !d.live(gen) {
			return
		}
		if !d.awake() {
			d.scheduleDayOff(gen)
			return
		}
		off := d.rng.LogNormalDuration(d.cfg.DayOffMedian, d.cfg.DayOffSigma)
		if d.rng.Bool(d.cfg.LoggerOffProb) {
			d.oracle.record(TruthLoggerOff, d.eng.Now(), "user stopped logger", d.currentActivity)
			d.Shutdown(ReasonLoggerOff, off)
			return
		}
		d.oracle.record(TruthUserShutdown, d.eng.Now(), "day", d.currentActivity)
		d.Shutdown(ReasonUser, off)
	})
}

// Battery ----------------------------------------------------------------

func (d *Device) scheduleEveningCharge(gen int) {
	tod := d.eng.Now().TimeOfDay()
	evening := 21 * time.Hour
	delay := evening - tod
	if delay <= 0 {
		delay += 24 * time.Hour
	}
	d.eng.After(delay, d.label(lblCharge), func() {
		if !d.live(gen) {
			return
		}
		if d.rng.Bool(d.cfg.EveningChargeProb) {
			d.battery = 1
			d.publishBattery()
		}
		d.scheduleEveningCharge(gen)
	})
}

func (d *Device) scheduleBatteryTick(gen int) {
	d.eng.After(time.Hour, d.label(lblBattery), func() {
		if !d.live(gen) {
			return
		}
		d.battery -= d.cfg.BatteryDrainPerHour
		d.publishBattery()
		if d.battery <= d.cfg.LowBatteryThreshold {
			d.battery = 0
			d.oracle.record(TruthLowBattery, d.eng.Now(), "battery exhausted", d.currentActivity)
			// Half the time the user notices quickly and charges; the
			// other half the phone stays off until the next morning.
			var off time.Duration
			if d.rng.Bool(0.5) {
				off = d.rng.LogNormalDuration(90*time.Minute, 0.5)
			} else {
				off = d.untilWake() + d.rng.ExpDuration(30*time.Minute)
			}
			d.battery = 1 // charged while off
			d.Shutdown(ReasonLowBattery, off)
			return
		}
		d.scheduleBatteryTick(gen)
	})
}

// Failures ----------------------------------------------------------------

// scheduleSpontaneous drives the freezes/self-shutdowns that happen with no
// panic record — causes the logger cannot observe.
func (d *Device) scheduleSpontaneous(gen int, freeze bool) {
	rate := d.cfg.SpontaneousShutdownPerHour
	if freeze {
		rate = d.cfg.SpontaneousFreezePerHour
	}
	mean, ok := meanInterval(rate)
	if !ok {
		return
	}
	d.eng.After(d.rng.ExpDuration(mean), d.label(lblSpontaneous), func() {
		if !d.live(gen) {
			return
		}
		if freeze {
			d.Freeze("spontaneous")
		} else {
			d.SelfShutdown("spontaneous")
		}
	})
}

// outputFailureDetails are the value-failure manifestations the forum
// study quotes (section 4: "inaccuracy in charge indicator, ring or music
// volume different from the configured one, and event reminders going off
// at wrong times").
var outputFailureDetails = []string{
	"inaccurate charge indicator",
	"ring volume different from configured",
	"event reminder at the wrong time",
	"wallpaper reset to default",
	"wrong ringtone played",
}

// scheduleOutputFailures drives user-visible value failures. They do not
// stop the phone; they fire the output-failure hooks so optional observers
// (core.UserReporter) can model user-driven reporting.
func (d *Device) scheduleOutputFailures(gen int) {
	mean, ok := meanInterval(d.cfg.OutputFailurePerHour)
	if !ok {
		return
	}
	d.eng.After(d.rng.ExpDuration(mean), d.label(lblOutputFailure), func() {
		if !d.live(gen) {
			return
		}
		of := OutputFailure{
			Time:     d.eng.Now(),
			Detail:   outputFailureDetails[d.rng.Intn(len(outputFailureDetails))],
			Activity: d.currentActivity,
		}
		d.oracle.record(TruthOutputFailure, of.Time, of.Detail, of.Activity)
		for _, fn := range d.outputHooks {
			fn(of)
		}
		d.scheduleOutputFailures(gen)
	})
}

// schedulePanicOpportunity drives the fault model: defect-trigger
// opportunities arrive as a Poisson process whose intensity is modulated by
// the current activity's risk multiplier (thinning).
func (d *Device) schedulePanicOpportunity(gen int) {
	maxRate := d.cfg.PanicOpportunityPerHour * d.cfg.riskMax()
	mean, ok := meanInterval(maxRate)
	if !ok {
		return
	}
	d.eng.After(d.rng.ExpDuration(mean), d.label(lblPanicOp), func() {
		if !d.live(gen) {
			return
		}
		accept := d.cfg.risk(d.currentActivity) / d.cfg.riskMax()
		if d.rng.Bool(accept) {
			d.faults.trigger()
		}
		d.schedulePanicOpportunity(gen)
	})
}

var _ = sim.Epoch
