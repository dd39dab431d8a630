package symfail

import (
	"testing"
	"time"

	"symfail/internal/phone"
)

func TestValidateDetection(t *testing.T) {
	fs, err := RunFieldStudy(smallCfg(47))
	if err != nil {
		t.Fatal(err)
	}
	rep := ValidateDetection(fs)
	if rep.PhonesCompared == 0 {
		t.Fatal("no unserviced phones to compare")
	}
	if rep.TruthFreezes == 0 || rep.TruthSelfShutdowns == 0 {
		t.Fatalf("degenerate truth counts: %+v", rep)
	}
	// Freeze recall: at most one missed freeze per phone (the final one).
	if rep.FreezeRecall < 0.8 || rep.FreezeRecall > 1.0 {
		t.Errorf("freeze recall = %.3f", rep.FreezeRecall)
	}
	// Self-shutdown identification within a few percent.
	if rep.SelfShutdownRatio < 0.85 || rep.SelfShutdownRatio > 1.15 {
		t.Errorf("self-shutdown ratio = %.3f", rep.SelfShutdownRatio)
	}
	// RDebug misses nothing — but serviced phones lose pre-reset panic
	// records from flash, so the capture rate can dip below 1 when any
	// phone was serviced.
	anyServiced := false
	for _, d := range fs.Fleet.Devices {
		if d.ServiceVisits() > 0 {
			anyServiced = true
		}
	}
	if !anyServiced && rep.PanicCaptureRate != 1.0 {
		t.Errorf("panic capture = %.3f with no serviced phones", rep.PanicCaptureRate)
	}
	if rep.PanicCaptureRate > 1.0 || rep.PanicCaptureRate < 0.5 {
		t.Errorf("panic capture = %.3f out of plausible range", rep.PanicCaptureRate)
	}
}

func TestUploadFrequencyImprovesPanicCapture(t *testing.T) {
	// Master resets destroy everything logged since the last upload, so
	// capture improves monotonically with upload frequency — the
	// quantitative argument for the study's periodic transfer
	// infrastructure. Records already uploaded always survive resets
	// (PutMerged), so even infrequent uploads beat final-only collection.
	capture := func(every time.Duration) float64 {
		cfg := FieldStudyConfig{
			Seed:        53,
			Phones:      4,
			Duration:    3 * phone.StudyMonth,
			JoinWindow:  0,
			UploadEvery: every,
			Device: func(seed uint64) phone.Config {
				c := phone.DefaultConfig(seed)
				c.ServiceFailureThreshold = 2
				c.ServiceProb = 1
				return c
			},
		}
		fs, srv, err := RunFieldStudyWithFleet(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		return ValidateDetection(fs).PanicCaptureRate
	}
	weekly := capture(7 * 24 * time.Hour)
	hourly := capture(time.Hour)
	if hourly < weekly {
		t.Errorf("hourly uploads captured less than weekly: %.3f < %.3f", hourly, weekly)
	}
	if hourly < 0.9 {
		t.Errorf("hourly capture = %.3f, want near-complete", hourly)
	}
	if weekly <= 0.2 {
		t.Errorf("weekly capture = %.3f, suspiciously low", weekly)
	}
}
