package core

import (
	"testing"
	"time"

	"symfail/internal/phone"
	"symfail/internal/sim"
	"symfail/internal/symbos"
)

// TestTrackedBeatsLengthMatchesFlash holds the daemon's own record of its
// beats file's length to the flash. After every engine event of a live
// boot — so after every settle of owed heartbeats, beats compaction,
// boot-time recovery and Log File append or rotation — beatsLen must equal
// FS.Size of the beats file (-1 while the file is absent). The cases cover
// what could make the two drift apart: reboots (the length is re-seeded),
// torn writes on a frozen phone's battery pull, a full flash that rejects
// writes with KErrDiskFull, another writer on the Log File (the
// user-report extension), and a file server that dies mid-boot, after
// which no owed beat is stored.
//
// It also holds owed beats to the grid they fall on. On a fault-free flash
// with a live file server, reading the flash after any event shows the
// boot beat or the ALIVE beat of the latest grid instant before now (or at
// now, when one of the daemon's active objects settled it). After the file
// server dies, no beat due after the kill lands for the rest of the boot.
func TestTrackedBeatsLengthMatchesFlash(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*phone.Config)
		// killFS terminates the file server partway through every boot:
		// three hours in on odd boots, and on even boots just before the
		// beat that would compact the beats file, so both a lost append
		// and a lost compaction rewrite are exercised.
		killFS bool
		// reporter installs UserReporter, which appends to the Log File
		// straight on flash — beside the daemon, never to the beats file.
		reporter bool
		check    func(t *testing.T, d *phone.Device, s trackStats)
	}{
		{
			name: "reboots",
			check: func(t *testing.T, _ *phone.Device, s trackStats) {
				if s.boots < 5 || s.logRotations == 0 {
					t.Errorf("%d boots and %d Log File rotations: want several boots and a rotation", s.boots, s.logRotations)
				}
			},
		},
		{
			name: "torn battery pulls",
			mutate: func(c *phone.Config) {
				c.SpontaneousFreezePerHour = 1.0 / 12
				c.Flash = phone.FlashFaults{TornWriteProb: 1, BitRotPerWrite: 0.02}
			},
			check: func(t *testing.T, d *phone.Device, s trackStats) {
				if d.FS().TornWrites() == 0 || d.FS().BitFlips() == 0 {
					t.Errorf("torn writes %d, bit flips %d: want both > 0", d.FS().TornWrites(), d.FS().BitFlips())
				}
			},
		},
		{
			name: "full flash",
			mutate: func(c *phone.Config) {
				c.Flash = phone.FlashFaults{QuotaBytes: 5 << 10}
			},
			check: func(t *testing.T, _ *phone.Device, s trackStats) {
				if s.failedBeats == 0 {
					t.Error("no beat was rejected by the full flash")
				}
			},
		},
		{
			name:     "user reports",
			mutate:   func(c *phone.Config) { c.OutputFailurePerHour = 1.0 / 6 },
			reporter: true,
			check: func(t *testing.T, d *phone.Device, s trackStats) {
				if s.reports == 0 {
					t.Error("the user filed no report")
				}
			},
		},
		{
			name:   "dead file server",
			killFS: true,
			check: func(t *testing.T, _ *phone.Device, s trackStats) {
				if s.failedBeats == 0 || s.killedBeforeCompaction == 0 {
					t.Errorf("%d beats due against a dead file server, %d of its kills before a compaction: want both > 0",
						s.failedBeats, s.killedBeforeCompaction)
				}
				if s.deadChecks == 0 {
					t.Error("no event ran after a file-server kill")
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine()
			cfg := phone.DefaultConfig(15)
			cfg.PanicOpportunityPerHour *= 4 // more Log File appends
			if tc.mutate != nil {
				tc.mutate(&cfg)
			}
			d := phone.NewDevice("tracked", eng, cfg)
			// A small Log File cap makes rotation part of the run.
			l := &Logger{dev: d, cfg: Config{MaxLogBytes: 2 << 10}.withDefaults(d)}
			beats, logPath := l.cfg.BeatsPath, l.cfg.LogPath
			period := l.cfg.HeartbeatPeriod
			var dm *daemon
			var s trackStats
			var runs uint64   // beats due in this boot, as last seen
			var boot sim.Time // this boot's instant: its beat grid's origin
			// killedAt is when this boot's file server died (-1: alive),
			// and deadBeats the beats file as it stood then.
			killedAt, deadBeats := sim.Time(-1), ""
			kill := func(k *symbos.Kernel, srv *symbos.Process) {
				deadBeats = string(readFile(d, beats))
				k.TerminateProcess(srv)
				killedAt = eng.Now()
			}
			d.OnBoot(func(d *phone.Device) {
				dm = l.startDaemon(d)
				s.boots++
				boot, killedAt = eng.Now(), -1
				runs, s.lastBeats = 0, d.FS().Size(beats)
				if tc.killFS && s.boots%2 == 1 {
					k, srv := d.Kernel(), d.FileServer().Server().Process()
					eng.After(3*time.Hour, "kill F32Srv", func() {
						if d.Kernel() == k {
							kill(k, srv)
						}
					})
				}
			})
			var u *UserReporter
			if tc.reporter {
				u = InstallUserReporter(d, UserReporterConfig{})
			}
			d.Enroll(sim.Epoch)

			logSize := 0
			beatFrame := len(AppendFrame(nil, AppendBeat(nil, Beat{Kind: BeatAlive, Time: int64(sim.Epoch)})))
			end := sim.Epoch.Add(20 * 24 * time.Hour)
			for eng.Now() < end && eng.Step() {
				if dm == nil || d.State() != phone.StateOn || d.Kernel() != dm.k {
					continue // no live daemon: its length is re-seeded at the next boot
				}
				want := -1
				if d.FS().Exists(beats) {
					want = d.FS().Size(beats)
				}
				if dm.beatsLen != want {
					t.Fatalf("%s: tracked beats length %d, flash holds %d", eng.Now(), dm.beatsLen, want)
				}
				s.checks++
				now := eng.Now()
				switch {
				case killedAt >= 0:
					// Dead file server: nothing due after the kill lands.
					if got := string(readFile(d, beats)); got != deadBeats {
						t.Fatalf("%s: beats file changed after the file server died at %s", now, killedAt)
					}
					s.deadChecks++
				case !cfg.Flash.Enabled():
					beat, ok := ParseBeat(readFile(d, beats))
					// The latest grid instant strictly before now: the
					// newest beat any observer settles.
					due := boot
					if now > boot {
						due = boot.Add((now.Sub(boot) - 1) / period * period)
					}
					at := sim.Time(beat.Time)
					if !ok || beat.Kind != BeatAlive || (at != due && (at != now || now.Sub(boot)%period != 0)) {
						t.Fatalf("%s: newest beat %+v (intact %v), want the ALIVE beat at %s (boot %s, period %s)",
							now, beat, ok, due, boot, period)
					}
					s.gridChecks++
				}
				if r := dm.beats; r != runs {
					switch n := d.FS().Size(beats); {
					case n == s.lastBeats:
						s.failedBeats++
					case n < s.lastBeats:
						s.compactions++
					}
					runs = r
				}
				if n := d.FS().Size(logPath); n != logSize {
					if n > logSize {
						s.logAppends++
					} else {
						s.logRotations++
					}
					logSize = n
				}
				s.lastBeats = d.FS().Size(beats)
				if srv := d.FileServer().Server().Process(); tc.killFS && s.boots%2 == 0 &&
					srv.Alive() && s.lastBeats+beatFrame > maxBeatsBytes {
					kill(d.Kernel(), srv)
					s.killedBeforeCompaction++
				}
			}
			if s.compactions == 0 || s.logAppends == 0 {
				t.Errorf("vacuous run: %+v — want beats compactions and Log File appends", s)
			}
			if !cfg.Flash.Enabled() && s.gridChecks == 0 {
				t.Errorf("vacuous run: %+v — no beat was held to its grid", s)
			}
			if u != nil {
				s.reports = len(u.Reports())
			}
			tc.check(t, d, s)
			t.Logf("%+v", s)
		})
	}
}

// trackStats counts what a TestTrackedBeatsLengthMatchesFlash run went
// through, so each case can assert it exercised its failure mode.
type trackStats struct {
	boots, checks            int
	failedBeats, compactions int
	logAppends, logRotations int
	lastBeats                int
	killedBeforeCompaction   int
	reports                  int
	gridChecks, deadChecks   int
}

// readFile returns path's bytes as the flash holds them (nil when absent).
func readFile(d *phone.Device, path string) []byte {
	data, _ := d.FS().Read(path)
	return data
}
