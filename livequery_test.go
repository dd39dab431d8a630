package symfail

import (
	"encoding/json"
	"sort"
	"testing"
	"time"

	"symfail/internal/analysis/stream"
	"symfail/internal/collect"
	"symfail/internal/core"
	"symfail/internal/phone"
)

// sortedStrings returns the map's keys in sorted order.
func sortedStrings(m map[string][]core.Record) []string {
	ids := make([]string, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// TestMonitorAndLiveStudyAcrossServerCrashes is the at-least-once tap
// contract under real crashes, at every fleet size: with the supervisor
// killing collection servers (and, sharded, the router) mid-study, records
// acked by a dead incarnation are re-sent and re-fire the record tap, and a
// replicated fleet delivers every replica copy too — yet both live
// consumers (Monitor and LiveStudy) must end with exactly the distinct
// record set the final merged dataset holds, and the live query tier must
// stay answerable over TCP on the fleet's address the whole time, restarts
// included.
func TestMonitorAndLiveStudyAcrossServerCrashes(t *testing.T) {
	for _, tc := range []struct {
		name                       string
		servers, replicate, quorum int
	}{
		{name: "servers=1", servers: 1},
		{name: "servers=3/R=3/W=2", servers: 3, replicate: 3, quorum: 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := FieldStudyConfig{
				Seed:        20070801,
				Phones:      6,
				Duration:    3 * phone.StudyMonth,
				JoinWindow:  phone.StudyMonth / 2,
				UploadEvery: 3 * 24 * time.Hour,
				Servers:     tc.servers,
				Replicate:   tc.replicate,
				Quorum:      tc.quorum,
				Monitor:     stream.NewMonitor(),
				LiveStudy:   stream.NewLiveStudy(stream.Config{}),
			}
			cfg.Adversity.ServerCrash = collect.CrashFaults{KillEveryMin: 6, KillEveryMax: 18}
			cfg.Adversity.ServerCompactWAL = 64 << 10
			checkLiveTap(t, cfg)
		})
	}
}

// checkLiveTap runs one fleet study with the live consumers attached and
// holds them to the merged dataset.
func checkLiveTap(t *testing.T, cfg FieldStudyConfig) {
	t.Helper()
	mon, live := cfg.Monitor, cfg.LiveStudy
	fs, sup, err := RunFieldStudyWithFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Close()
	if sup.Crashes()+sup.RouterKills() == 0 {
		t.Fatal("no server crashes injected — the at-least-once replay path was not exercised")
	}

	all := fs.Dataset.AllRecords()
	total, devices := 0, 0
	for _, recs := range all {
		if len(recs) > 0 {
			devices++
		}
		total += len(recs)
	}

	// Satellite invariant: the monitor tolerates the duplicate deliveries a
	// restarted incarnation replays — its counts equal the distinct set.
	ms := mon.Snapshot().(*stream.MonitorSnapshot)
	if ms.Records != total || ms.Devices != devices {
		t.Errorf("monitor saw %d records on %d devices; dataset holds %d on %d",
			ms.Records, ms.Devices, total, devices)
	}

	// The live study deduplicates the same tap; with crashes injected the
	// replays actually happened, so the dedup did real work.
	if live.Records() != total {
		t.Errorf("live study saw %d distinct records, dataset holds %d", live.Records(), total)
	}
	t.Logf("%d shard crashes, %d router kills: %d distinct records, %d duplicate deliveries dropped, %d reordered",
		sup.Crashes(), sup.RouterKills(), live.Records(), live.Duplicates(), live.Reordered())
	if sup.Restarts() > 0 && live.Duplicates() == 0 {
		t.Logf("note: %d restarts but no duplicate deliveries this seed", sup.Restarts())
	}

	// The windowed fold is order-insensitive, so the live view must equal a
	// batch fold of the final dataset byte for byte.
	batch := stream.NewWindowAcc(stream.Config{})
	for id, recs := range all {
		for _, r := range recs {
			batch.Observe(id, r)
		}
	}
	gotW, _ := json.Marshal(live.Window(0))
	wantW, _ := json.Marshal(batch.Stats(0))
	if string(gotW) != string(wantW) {
		t.Errorf("live windowed view diverged from batch fold of the dataset:\n got %s\nwant %s", gotW, wantW)
	}

	// When every delivery arrived in per-device time order, the exact live
	// tables equal a batch fold of the final dataset too (fed the way
	// analysis.New feeds it: sorted devices, stable time order).
	if live.Reordered() == 0 {
		tables := stream.NewTables(stream.Config{})
		for _, id := range sortedStrings(all) {
			tables.AddDevice(id)
			recs := append([]core.Record(nil), all[id]...)
			sort.SliceStable(recs, func(i, j int) bool { return recs[i].Time < recs[j].Time })
			for _, r := range recs {
				tables.Observe(id, r)
			}
		}
		gotT, _ := json.Marshal(live.Tables())
		wantT, _ := json.Marshal(tables.Snapshot())
		if string(gotT) != string(wantT) {
			t.Error("live exact tables diverged from the batch fold despite in-order delivery")
		}
	}

	// The query tier is still serving on the supervisor's address.
	out, err := collect.Query(sup.Addr(), "status")
	if err != nil {
		t.Fatalf("status query: %v", err)
	}
	var st stream.LiveStatus
	if err := json.Unmarshal([]byte(out), &st); err != nil {
		t.Fatalf("status answer %q: %v", out, err)
	}
	if st.Records != total {
		t.Errorf("status query reports %d records, dataset holds %d", st.Records, total)
	}
	for _, q := range []string{"mtbf", "panics", "freezerate"} {
		if out, err := collect.Query(sup.Addr(), q); err != nil || !json.Valid([]byte(out)) {
			t.Errorf("query %s: %q, %v", q, out, err)
		}
	}

	// Monitor dedup also holds against the ground-truth acked ledger.
	for id := range all {
		keys := sup.AckedKeys(id)
		recs := make(map[string]bool)
		for _, r := range fs.Dataset.Records(id) {
			recs[string(core.EncodeRecord(r))] = true
		}
		for _, k := range keys {
			if !recs[k] {
				t.Errorf("device %s: acked record missing from the dataset: %s", id, k)
			}
		}
	}
}
