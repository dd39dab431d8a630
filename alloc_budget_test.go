package symfail

import (
	"testing"
	"time"

	"symfail/internal/analysis/stream"
	"symfail/internal/collect"
	"symfail/internal/core"
	"symfail/internal/phone"
	"symfail/internal/sim"
	"symfail/internal/symbos"
)

// ipcPhone is a device a day into its study, with a client process
// holding sessions to the F32 file server and the Database Log Server —
// the logger's view of the phone, for the file-IPC budgets.
func ipcPhone(t *testing.T) (*phone.Device, *symbos.FileSession, *symbos.Session) {
	t.Helper()
	eng := sim.NewEngine()
	d := phone.NewDevice("alloc-budget", eng, phone.DefaultConfig(1))
	d.Enroll(sim.Epoch)
	if err := eng.Run(sim.Epoch.Add(24 * time.Hour)); err != nil {
		t.Fatal(err)
	}
	if d.State() != phone.StateOn {
		t.Fatalf("device is %s after a day, want on", d.State())
	}
	client := d.Kernel().StartProcess("AllocClient", false).Main()
	return d, d.FileServer().Connect(client), d.DBLogServer().Connect(client)
}

// TestAllocBudgets is the repo-wide allocation ratchet: every hot path gets
// a named steady-state budget, and a change that regresses one fails here
// with the subsystem spelled out. Budgets only ever go down — when an
// optimisation lands, tighten the number in this table so the gain cannot
// silently erode. Skipped under -race (instrumentation allocates).
func TestAllocBudgets(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under -race")
	}
	cases := []struct {
		name   string
		budget float64
		// setup returns the op to measure, already warmed to steady state.
		setup func(t *testing.T) func()
	}{
		{
			// The tentpole contract: scheduling and firing an event on the
			// timing-wheel engine reuses pooled nodes and interned closures,
			// so the simulation hot loop allocates nothing at all.
			name: "sim/engine: schedule+fire one event", budget: 0,
			setup: func(*testing.T) func() {
				eng := sim.NewEngine()
				fn := func() {}
				op := func() {
					eng.After(time.Second, "tick", fn)
					eng.Step()
				}
				for i := 0; i < 256; i++ {
					op()
				}
				return op
			},
		},
		{
			name: "core: AppendRecord into warm scratch", budget: 0,
			setup: func(*testing.T) func() {
				rec := core.Record{
					Kind: core.KindPanic, Time: 1234567890, Category: "KERN-EXEC",
					PType: 3, Apps: []string{"phone", "camera"}, Activity: "voice-call",
				}
				buf := make([]byte, 0, 256)
				return func() { buf = core.AppendRecordLine(buf[:0], rec) }
			},
		},
		{
			name: "core: AppendFrame into warm scratch", budget: 0,
			setup: func(*testing.T) func() {
				payload := core.AppendRecord(nil, core.Record{Kind: core.KindBoot, Time: 7, Boot: 2})
				buf := make([]byte, 0, 256)
				return func() { buf = core.AppendFrame(buf[:0], payload) }
			},
		},
		{
			// File IPC is zero-copy: the message borrows the caller's
			// bytes and the flash rewrites the file's backing array.
			name: "symbos/phone: WriteFile same-length rewrite", budget: 0,
			setup: func(t *testing.T) func() {
				_, files, _ := ipcPhone(t)
				data := []byte("ok 0.87")
				files.WriteFile(core.DefaultPowerPath, data)
				return func() { files.WriteFile(core.DefaultPowerPath, data) }
			},
		},
		{
			name: "symbos/phone: AppendFile into spare capacity", budget: 0,
			setup: func(t *testing.T) func() {
				d, files, _ := ipcPhone(t)
				// Grow the file's backing array, then rewrite it empty in
				// place: the appends below all fit the spare capacity.
				d.FS().Write("logs/append", make([]byte, 64<<10))
				d.FS().Write("logs/append", nil)
				frame := []byte("0123456789abcdef")
				return func() { files.AppendFile("logs/append", frame) }
			},
		},
		{
			// The Log Engine AO's refresh: the Database Log Server's reply
			// goes straight to the file server, no conversion in between.
			name: "core: Log Engine refresh (DBLog Query + WriteFile)", budget: 0,
			setup: func(t *testing.T) func() {
				_, files, dbLog := ipcPhone(t)
				if resp, _ := dbLog.Query(phone.OpRecentActivity, ""); len(resp) == 0 {
					t.Fatal("no recorded activity after a day")
				}
				return func() {
					resp, code := dbLog.Query(phone.OpRecentActivity, "")
					if code == symbos.KErrNone {
						files.WriteFile(core.DefaultActivityPath, resp)
					}
				}
			},
		},
		{
			// A beat written the way the logger once wrote every beat:
			// frame it in scratch, size-gate the beats file and append,
			// compacting with an in-place rewrite past the cap (4 KiB,
			// core's maxBeatsBytes). Warmed past one compaction, the
			// file's array never grows again.
			name: "core: heartbeat (SizeFile + AppendFile, compaction amortised)", budget: 0,
			setup: func(t *testing.T) func() {
				d, files, _ := ipcPhone(t)
				var payload, buf []byte
				op := func() {
					payload = core.AppendBeat(payload[:0], core.Beat{Kind: core.BeatAlive, Time: int64(d.Now())})
					buf = core.AppendFrame(buf[:0], payload)
					if n, code := files.SizeFile(core.DefaultBeatsPath); code == symbos.KErrNone && n+len(buf) > 4<<10 {
						files.WriteFile(core.DefaultBeatsPath, buf)
						return
					}
					files.AppendFile(core.DefaultBeatsPath, buf)
				}
				for i := 0; i < 512; i++ {
					op()
				}
				return op
			},
		},
		{
			// A boot or shutdown beat as the daemon writes it: the daemon
			// knows its beats file's length, so a beat is one AppendFile
			// (and a rewrite at the cap) with no size query first.
			name: "core: heartbeat with a tracked length (AppendFile only)", budget: 0,
			setup: func(t *testing.T) func() {
				d, files, _ := ipcPhone(t)
				var payload, buf []byte
				n := d.FS().Size(core.DefaultBeatsPath)
				op := func() {
					payload = core.AppendBeat(payload[:0], core.Beat{Kind: core.BeatAlive, Time: int64(d.Now())})
					buf = core.AppendFrame(buf[:0], payload)
					if n+len(buf) > 4<<10 {
						if files.WriteFile(core.DefaultBeatsPath, buf) == symbos.KErrNone {
							n = len(buf)
						}
						return
					}
					if files.AppendFile(core.DefaultBeatsPath, buf) == symbos.KErrNone {
						n += len(buf)
					}
				}
				for i := 0; i < 512; i++ {
					op()
				}
				return op
			},
		},
		{
			// An owed ALIVE beat settled by the next flash operation:
			// framed in the logger's own warm scratch and appended
			// straight to the store. A 10 ms period puts one beat due per
			// step of the clock while no other engine event fires, so the
			// op is exactly one settled beat.
			name: "core: settle one owed beat (warm scratch)", budget: 0,
			setup: func(t *testing.T) func() {
				eng := sim.NewEngine()
				d := phone.NewDevice("alloc-owed", eng, phone.DefaultConfig(1))
				l := core.Install(d, core.Config{HeartbeatPeriod: 10 * time.Millisecond})
				d.Enroll(sim.Epoch)
				eng.Step() // boot
				beats := l.Config().BeatsPath
				op := func() {
					if err := eng.Run(eng.Now().Add(l.Config().HeartbeatPeriod)); err != nil {
						t.Fatal(err)
					}
					d.FS().Size(beats)
				}
				op() // from here on, each op finds one beat owed
				fired, written := eng.Fired(), d.FS().Writes()
				// Warm past several compactions of the 4 KiB beats file.
				const warm = 512
				for i := 0; i < warm; i++ {
					op()
				}
				if eng.Fired() != fired || d.FS().Writes() != written+warm {
					t.Fatalf("%d events fired and %d flash writes in %d beat periods: want 0 and %d",
						eng.Fired()-fired, d.FS().Writes()-written, warm, warm)
				}
				return op
			},
		},
		{
			// The Database Log Server keeps its encoded reply until the
			// activity log changes.
			name: "phone: unchanged OpRecentActivity reply", budget: 0,
			setup: func(t *testing.T) func() {
				_, _, dbLog := ipcPhone(t)
				if resp, _ := dbLog.Query(phone.OpRecentActivity, ""); len(resp) == 0 {
					t.Fatal("no recorded activity after a day")
				}
				return func() { dbLog.Query(phone.OpRecentActivity, "") }
			},
		},
		{
			name: "symbos: Buf.Copy + Append into warm capacity", budget: 0,
			setup: func(t *testing.T) func() {
				d, _, _ := ipcPhone(t)
				path := symbos.NewBuf(d.Kernel(), 64)
				op := func() {
					path.Copy("C:\\Documents\\photos")
					path.Append("\\2006")
				}
				op()
				return op
			},
		},
		{
			// One app activity as the workload runs it (a voice call):
			// launch Telephone, exercise its descriptor and client/server
			// paths on the app's main thread, close it. Down from 22 when
			// every launch built its thread, scheduler, heap, cell map,
			// handle map and service, and every session its own scratch
			// Message and labels. What remains is the process (one
			// allocation with its thread, scheduler and heap), its App,
			// its handle index, the session, and the descriptor and its
			// payload strings.
			name: "phone: one app activity (launch, perform, close)", budget: 7,
			setup: func(t *testing.T) func() {
				d, _, _ := ipcPhone(t)
				return func() {
					a := d.LaunchApp(phone.AppTelephone)
					k, th := d.Kernel(), a.Proc().Main()
					k.Exec(th, "voice-call", func() {
						num := symbos.NewBuf(k, 32)
						num.Copy("+3908112345")
						num.Append("67")
						sess := d.DBLogServer().Connect(th)
						sess.SendReceive(phone.OpPing, "call "+num.String(), nil)
						sess.Close()
					})
					d.CloseApp(phone.AppTelephone)
				}
			},
		},
		{
			// The collection tier's re-send case: every payload of the
			// incoming stream is already in the device's merge index, so
			// the merge is a frame walk and one set lookup per record, and
			// the stored bytes are left alone.
			name: "collect: PutMerged of an already-merged stream", budget: 0,
			setup: func(*testing.T) func() {
				var stream []byte
				for i := 0; i < 64; i++ {
					stream = core.AppendFrame(stream, core.AppendRecord(nil, core.Record{
						Kind: core.KindPanic, Time: int64(i) * int64(time.Minute), Category: "KERN-EXEC",
						PType: 3, Apps: []string{"phone"}, Activity: "idle",
					}))
				}
				ds := collect.NewDataset()
				ds.PutMerged("p", stream) // raw first write
				ds.PutMerged("p", stream) // builds the merge index
				return func() { ds.PutMerged("p", stream) }
			},
		},
		{
			// The canonical path: one string for the whole payload (every
			// string field is a substring of it) plus the Apps slice.
			name: "core: DecodeRecord canonical panic record", budget: 2,
			setup: func(t *testing.T) func() {
				payload := core.AppendRecord(nil, core.Record{
					Kind: core.KindPanic, Time: 1234567890, Category: "KERN-EXEC",
					PType: 3, Apps: []string{"phone", "camera"}, Activity: "voice-call",
				})
				return func() {
					if _, ok := core.DecodeRecord(payload); !ok {
						t.Fatal("canonical payload did not decode")
					}
				}
			},
		},
		{
			// Down from 12 when the accumulators still round-tripped
			// through encoding/json; the remaining allocs are the finalized
			// HLEvent and its retained strings.
			name: "analysis/stream: Observe boot record", budget: 6,
			setup: func(*testing.T) func() {
				acc := stream.NewTables(stream.Config{})
				acc.AddDevice("a")
				now, boot := int64(sim.Epoch), 1
				acc.Observe("a", core.Record{Kind: core.KindBoot, Time: now, Boot: boot, Detected: core.DetectedFirstBoot})
				op := func() {
					boot++
					prev := now
					now += int64(time.Hour)
					acc.Observe("a", core.Record{
						Kind: core.KindBoot, Time: now, Boot: boot,
						Detected: core.DetectedFreeze, PrevBeat: core.BeatAlive,
						PrevTime: prev, OffSeconds: 30,
					})
				}
				for i := 0; i < 64; i++ {
					op()
				}
				return op
			},
		},
		{
			name: "analysis/stream: Observe panic record", budget: 6,
			setup: func(*testing.T) func() {
				acc := stream.NewTables(stream.Config{})
				acc.AddDevice("a")
				acc.Observe("a", core.Record{Kind: core.KindBoot, Time: 0, Boot: 1, Detected: core.DetectedFirstBoot})
				now := int64(sim.Epoch)
				apps := []string{"phone", "camera"}
				op := func() {
					now += int64(time.Minute)
					acc.Observe("a", core.Record{
						Kind: core.KindPanic, Time: now, Category: "KERN-EXEC",
						PType: 3, Apps: apps, Activity: "voice-call",
					})
				}
				for i := 0; i < 64; i++ {
					op()
				}
				return op
			},
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			op := tc.setup(t)
			if avg := testing.AllocsPerRun(500, op); avg > tc.budget {
				t.Errorf("%s: %.1f allocs/op in steady state, budget %.0f", tc.name, avg, tc.budget)
			}
		})
	}
}
