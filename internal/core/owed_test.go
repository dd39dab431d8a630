package core

import (
	"testing"
	"time"

	"symfail/internal/phone"
	"symfail/internal/sim"
	"symfail/internal/symbos"
)

// beatsOnFlash returns every intact beat in the beats file, oldest first.
func beatsOnFlash(d *phone.Device, path string) []Beat {
	var out []Beat
	_ = ScanPayloads(readFile(d, path), func(payload []byte) error {
		if b, ok := parseBeatPayload(payload); ok {
			out = append(out, b)
		}
		return nil
	})
	return out
}

// TestOwedBeatSameInstantRule pins which side of its instant an owed ALIVE
// beat lands on when something else happens at that very instant. The
// paper's Heartbeat AO had the top priority, so it ran before any of the
// daemon's other active objects that fell due with it; but a battery tick
// that shuts the phone down for low battery ran before the heartbeat's
// timer. So a beat at exactly now is settled inside the daemon's own
// active objects and nowhere else.
func TestOwedBeatSameInstantRule(t *testing.T) {
	t.Run("low-battery shutdown on a beat instant", func(t *testing.T) {
		eng := sim.NewEngine()
		cfg := phone.DefaultConfig(5)
		quiet(&cfg)
		cfg.BatteryDrainPerHour = 1 // the first battery tick shuts the phone down
		d := phone.NewDevice("lowbt-tie", eng, cfg)
		l := Install(d, Config{})
		d.Enroll(sim.Epoch)
		eng.Step() // boot
		boot, period := eng.Now(), l.Config().HeartbeatPeriod
		for d.State() == phone.StateOn && eng.Step() {
		}
		down := eng.Now()
		if off := down.Sub(boot); off != time.Hour || off%period != 0 {
			t.Fatalf("phone went down %v after boot, want on the battery tick an hour in (a beat instant)", off)
		}
		beats := beatsOnFlash(d, l.Config().BeatsPath)
		if len(beats) == 0 {
			t.Fatal("no beat on flash")
		}
		if last := beats[len(beats)-1]; last.Kind != BeatLowBat || sim.Time(last.Time) != down {
			t.Fatalf("newest beat %+v, want LOWBT at %s", last, down)
		}
		for _, b := range beats {
			if b.Kind == BeatAlive && sim.Time(b.Time) == down {
				t.Fatalf("ALIVE beat at the shutdown instant %s: the low-battery tick ran before the heartbeat", down)
			}
		}
		if prev := beats[len(beats)-2]; prev.Kind != BeatAlive || sim.Time(prev.Time) != down.Add(-period) {
			t.Errorf("beat before LOWBT %+v, want ALIVE at %s", prev, down.Add(-period))
		}
	})

	t.Run("daemon active object on a beat instant", func(t *testing.T) {
		eng := sim.NewEngine()
		cfg := phone.DefaultConfig(6)
		quiet(&cfg)
		d := phone.NewDevice("ao-tie", eng, cfg)
		l := &Logger{dev: d, cfg: Config{}.withDefaults(d)}
		var dm *daemon
		d.OnBoot(func(d *phone.Device) { dm = l.startDaemon(d) })
		d.Enroll(sim.Epoch)
		eng.Step() // boot
		boot, period := eng.Now(), l.cfg.HeartbeatPeriod
		aos := []*symbos.ActiveObject{dm.runApp, dm.logEngine, dm.powerMgr}
		runs := make([]uint64, len(aos))
		end := boot.Add(12 * time.Hour)
		for eng.Now() < end && d.State() == phone.StateOn && d.BootCount() == 1 && eng.Step() {
			now := eng.Now()
			for i, ao := range aos {
				if ao.Runs() == runs[i] {
					continue
				}
				runs[i] = ao.Runs()
				if now.Sub(boot)%period != 0 {
					t.Fatalf("%s ran at %s, off the beat grid from %s", ao.Name(), now, boot)
				}
				// Reading the flash settles only beats before now, so the
				// beat at now is there only if the RunL stored it first.
				beats := beatsOnFlash(d, l.cfg.BeatsPath)
				if last := beats[len(beats)-1]; last.Kind != BeatAlive || sim.Time(last.Time) != now {
					t.Fatalf("after %s ran at beat instant %s the newest beat is %+v: its write must land after that beat",
						ao.Name(), now, last)
				}
			}
		}
		for i, ao := range aos {
			if runs[i] == 0 {
				t.Errorf("%s never ran in %s", ao.Name(), end.Sub(boot))
			}
		}
	})
}
