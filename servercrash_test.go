package symfail

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"symfail/internal/collect"
)

// crashFingerprint extends the adversity witness with the crash/recover
// history: with Workers:1 the kill schedule, the crashpoints hit, the torn
// WAL tails and the recovered dataset are all pure functions of the seed.
type crashFingerprint struct {
	advFingerprint
	Crashes     int `json:"crashes"`
	Restarts    int `json:"restarts"`
	Compactions int `json:"compactions"`
}

// serverCrashStudyConfig is the pinned calibration for the golden
// server-crash run: the full adversity menu plus a kill every 3-9 requests
// and a compaction bound small enough that kills land on the snapshot path.
func serverCrashStudyConfig() FieldStudyConfig {
	cfg := adversityStudyConfig()
	cfg.Seed = 20072007
	cfg.Adversity.ServerCrash = collect.CrashFaults{KillEveryMin: 3, KillEveryMax: 9}
	cfg.Adversity.ServerCompactWAL = 32 << 10
	return cfg
}

func computeServerCrashFingerprint(t *testing.T, workers int) crashFingerprint {
	t.Helper()
	cfg := serverCrashStudyConfig()
	cfg.Workers = workers
	fs, sup, err := RunFieldStudyWithFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Close()
	if err := sup.Err(); err != nil {
		t.Fatal(err)
	}
	rep := fs.Study.MTBF()
	fp := crashFingerprint{
		Crashes:     sup.Crashes(),
		Restarts:    sup.Restarts(),
		Compactions: sup.Compactions(),
	}
	fp.Panics = len(fs.Study.Panics())
	fp.Freezes = rep.Freezes
	fp.SelfShutdowns = rep.SelfShutdowns
	fp.ObservedHours = rep.ObservedHours
	for _, d := range fs.Fleet.Devices {
		fp.Boots += d.BootCount()
		fp.TornWrites += d.FS().TornWrites()
		fp.BitFlips += d.FS().BitFlips()
	}
	if ps := fs.Study.Panics(); len(ps) > 0 {
		fp.FirstPanicKey = ps[0].Key()
		fp.FirstPanicAt = int64(ps[0].Time)
	}
	for _, l := range fs.Loggers {
		fp.LogBytes += len(l.LogBytes())
	}
	for _, id := range fs.Dataset.Devices() {
		for _, r := range fs.Dataset.Records(id) {
			fp.Salvaged += r.LogSalvaged
			fp.Lost += r.LogLost
		}
	}
	fp.DatasetCRC = fs.Dataset.CRC32C()
	return fp
}

// TestGoldenServerCrashFingerprint pins the serial crash-injected run: same
// seed and crashpoints give a byte-identical recovered dataset and the
// exact same crash/recover history, process to process. If WAL recovery
// were lossy, order-dependent or nondeterministic, DatasetCRC would drift.
// The study runs through RunFieldStudyWithFleet at one server (Servers 0
// means 1), so it also pins that the one-server fleet is the single
// durable collector, with no router in the path.
func TestGoldenServerCrashFingerprint(t *testing.T) {
	path := filepath.Join("testdata", "golden_fingerprint_servercrash.json")
	got := computeServerCrashFingerprint(t, 1)
	if got.Crashes == 0 {
		t.Error("golden server-crash run injected no crashes — the witness is vacuous")
	}
	if got.Crashes != got.Restarts {
		t.Errorf("crashes %d != restarts %d in the golden run", got.Crashes, got.Restarts)
	}
	if *updateGolden {
		blob, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("server-crash golden updated: %+v", got)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("no server-crash golden (run `go test -run Golden -update .`): %v", err)
	}
	blob, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	blob = append(blob, '\n')
	if !bytes.Equal(blob, want) {
		t.Errorf("server-crash fingerprint drifted.\n got: %s\nwant: %s\n"+
			"If the durability protocol changed intentionally, refresh with `go test -run Golden -update .`;"+
			" otherwise WAL recovery is not a pure function of the seed and crashpoints.", blob, want)
	}
}

// TestServerCrashSweepTable measures what server crashes cost: for a fixed
// study, sweep the kill rate and tabulate crashes, restarts, compactions
// and the client-side retransmission ledger. Because the collector's RNG is
// salted away from the device streams and the final collection retries, the
// recovered dataset must be byte-identical at every crash rate — the whole
// point of the WAL — which the sweep asserts via the dataset CRC. The table
// (run with -v) is the source of the EXPERIMENTS.md §"server crashes"
// numbers.
func TestServerCrashSweepTable(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is minutes of simulated uploads; skipped in -short")
	}
	kills := []int{0, 24, 12, 6}
	type row struct {
		killEvery                    int
		crashes, restarts, compact   int
		records                      int
		retries, resumes, reconnects int
		retransmitted                int64
		crc                          uint32
	}
	var rows []row
	for _, k := range kills {
		cfg := adversityStudyConfig()
		cfg.Seed = 555555
		cfg.Workers = 1
		if k > 0 {
			cfg.Adversity.ServerCrash = collect.CrashFaults{KillEveryMin: k / 2, KillEveryMax: k + k/2}
			cfg.Adversity.ServerCompactWAL = 32 << 10
		}
		fs, sup, err := RunFieldStudyWithFleet(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := sup.Err(); err != nil {
			t.Fatal(err)
		}
		r := row{
			killEvery: k,
			crashes:   sup.Crashes(),
			restarts:  sup.Restarts(),
			compact:   sup.Compactions(),
			crc:       fs.Dataset.CRC32C(),
		}
		for _, recs := range fs.Dataset.AllRecords() {
			r.records += len(recs)
		}
		for _, u := range fs.Uploaders {
			r.retries += u.Retries()
			r.resumes += u.Resumes()
			r.reconnects += u.Reconnects()
			r.retransmitted += u.BytesRetransmitted()
		}
		sup.Close()
		rows = append(rows, r)
	}

	t.Log("| kill every ~N requests | crashes | restarts | compactions | records recovered | retries | resumes | reconnects | bytes retransmitted |")
	t.Log("|---|---|---|---|---|---|---|---|---|")
	for _, r := range rows {
		label := "off"
		if r.killEvery > 0 {
			label = fmt.Sprintf("%d", r.killEvery)
		}
		t.Logf("| %s | %d | %d | %d | %d | %d | %d | %d | %d |",
			label, r.crashes, r.restarts, r.compact, r.records,
			r.retries, r.resumes, r.reconnects, r.retransmitted)
	}

	base := rows[0]
	if base.crashes != 0 {
		t.Errorf("baseline row crashed %d times with injection off", base.crashes)
	}
	for _, r := range rows[1:] {
		if r.crashes == 0 {
			t.Errorf("kill-every-%d row injected no crashes", r.killEvery)
		}
		if r.crc != base.crc {
			t.Errorf("kill-every-%d: dataset CRC %08x != crash-free CRC %08x — server crashes changed what was collected",
				r.killEvery, r.crc, base.crc)
		}
		if r.records != base.records {
			t.Errorf("kill-every-%d: %d records recovered, crash-free run had %d",
				r.killEvery, r.records, base.records)
		}
	}
}
