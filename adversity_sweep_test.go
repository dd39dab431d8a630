package symfail

import (
	"testing"
	"time"

	"symfail/internal/collect"
	"symfail/internal/phone"
)

// TestAdversitySweepTable reproduces the salvaged/lost-record table in
// EXPERIMENTS.md ("Adversity layer"): run with -v to print the measured
// rates per fault calibration. It asserts nothing beyond the runs
// completing — the chaos tests own the invariants — so it is skipped in
// -short mode.
func TestAdversitySweepTable(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is for EXPERIMENTS.md reproduction; chaos tests cover the invariants")
	}
	for _, torn := range []float64{0, 0.25, 0.5, 0.75, 1.0} {
		for _, rot := range []float64{0, 0.002} {
			cfg := FieldStudyConfig{
				Seed:        555,
				Phones:      8,
				Workers:     4, // the sweep rides the sharded path, like CI's race run
				Duration:    4 * phone.StudyMonth,
				JoinWindow:  phone.StudyMonth / 2,
				UploadEvery: 3 * 24 * time.Hour,
				Adversity: AdversityConfig{
					Flash:     phone.FlashFaults{TornWriteProb: torn, BitRotPerWrite: rot},
					Net:       collect.NetFaults{RefuseProb: 0.08, DropProb: 0.04, CorruptProb: 0.04, DropAckProb: 0.04},
					RetryBase: 20 * time.Minute,
					RetryMax:  12 * time.Hour,
				},
			}
			fs, srv, err := RunFieldStudyWithFleet(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var tornN, flips uint64
			for _, d := range fs.Fleet.Devices {
				tornN += d.FS().TornWrites()
				flips += d.FS().BitFlips()
			}
			salvaged, lost, total := 0, 0, 0
			for _, id := range fs.Dataset.Devices() {
				for _, r := range fs.Dataset.Records(id) {
					total++
					salvaged += r.LogSalvaged
					lost += r.LogLost
				}
			}
			rep := ValidateDetection(fs)
			t.Logf("torn=%.2f rot=%.3f | tornWrites=%d bitFlips=%d | salvaged=%d lost=%d totalRecs=%d | panicCapture=%.3f freezeRecall=%.3f",
				torn, rot, tornN, flips, salvaged, lost, total, rep.PanicCaptureRate, rep.FreezeRecall)
			srv.Close()
		}
	}
}
