package symfail

import (
	"math"
	"testing"
	"time"

	"symfail/internal/analysis"
	"symfail/internal/phone"
)

// smallCfg is a reduced field study: enough data for shape assertions,
// fast enough for `go test`.
func smallCfg(seed uint64) FieldStudyConfig {
	return FieldStudyConfig{
		Seed:       seed,
		Phones:     10,
		Duration:   5 * phone.StudyMonth,
		JoinWindow: phone.StudyMonth,
	}
}

func TestFieldStudyEndToEnd(t *testing.T) {
	fs, err := RunFieldStudy(smallCfg(42))
	if err != nil {
		t.Fatal(err)
	}
	if len(fs.Loggers) != 10 || len(fs.Fleet.Devices) != 10 {
		t.Fatalf("fleet size wrong")
	}
	if got := len(fs.Dataset.Devices()); got != 10 {
		t.Fatalf("dataset devices = %d", got)
	}
	rep := fs.Study.MTBF()
	if rep.Freezes == 0 || rep.SelfShutdowns == 0 {
		t.Fatalf("no failures detected: %+v", rep)
	}
	// Shape: MTBFr and MTBS within the paper's order of magnitude.
	if rep.MTBFrHours < 150 || rep.MTBFrHours > 700 {
		t.Errorf("MTBFr = %.0f h (paper: 313)", rep.MTBFrHours)
	}
	if rep.MTBSHours < 120 || rep.MTBSHours > 550 {
		t.Errorf("MTBS = %.0f h (paper: 250)", rep.MTBSHours)
	}
	if rep.MTBSHours >= rep.MTBFrHours {
		t.Errorf("self-shutdowns should out-rate freezes (MTBS %.0f vs MTBFr %.0f)",
			rep.MTBSHours, rep.MTBFrHours)
	}
	if rep.FailureEveryDays < 4 || rep.FailureEveryDays > 25 {
		t.Errorf("failure every %.1f days (paper: ~11)", rep.FailureEveryDays)
	}
}

func TestFieldStudyLoggerAgreesWithOracle(t *testing.T) {
	fs, err := RunFieldStudy(smallCfg(7))
	if err != nil {
		t.Fatal(err)
	}
	// The logger's freeze count must track ground truth closely on phones
	// that were never serviced (a master reset wipes the pre-service log
	// from flash; each phone may additionally miss its final, un-rebooted
	// freeze).
	loggedByDevice := make(map[string]int)
	for _, hl := range fs.Study.HLEvents(analysis.HLFreeze) {
		loggedByDevice[hl.Device]++
	}
	truthFreezes, logged, unserviced := 0, 0, 0
	for _, d := range fs.Fleet.Devices {
		if d.ServiceVisits() > 0 {
			continue
		}
		unserviced++
		truthFreezes += d.Oracle().Count(phone.TruthFreeze)
		logged += loggedByDevice[d.ID()]
	}
	if unserviced == 0 {
		t.Skip("every phone was serviced; nothing to compare")
	}
	if diff := truthFreezes - logged; diff < 0 || diff > unserviced {
		t.Errorf("oracle freezes = %d, logged = %d over %d unserviced phones",
			truthFreezes, logged, unserviced)
	}
	// Self-shutdown identification: the threshold should classify with
	// only a few percent of cross-contamination.
	selfByDevice := make(map[string]int)
	for _, hl := range fs.Study.HLEvents(analysis.HLSelfShutdown) {
		selfByDevice[hl.Device]++
	}
	truthSelf, loggedSelf := 0, 0
	for _, d := range fs.Fleet.Devices {
		if d.ServiceVisits() > 0 {
			continue
		}
		truthSelf += d.Oracle().Count(phone.TruthSelfShutdown)
		loggedSelf += selfByDevice[d.ID()]
	}
	if truthSelf == 0 {
		t.Fatal("no ground-truth self-shutdowns")
	}
	ratio := float64(loggedSelf) / float64(truthSelf)
	if math.Abs(ratio-1) > 0.15 {
		t.Errorf("self-shutdown identification ratio = %.2f (logged %d / truth %d)",
			ratio, loggedSelf, truthSelf)
	}
}

func TestFieldStudyDominantPanicIsKernExec3(t *testing.T) {
	fs, err := RunFieldStudy(smallCfg(11))
	if err != nil {
		t.Fatal(err)
	}
	rows := fs.Study.PanicTable()
	if len(rows) == 0 {
		t.Fatal("no panics")
	}
	if rows[0].Key != "KERN-EXEC 3" {
		t.Errorf("dominant panic = %s, want KERN-EXEC 3", rows[0].Key)
	}
	if rows[0].Percent < 35 {
		t.Errorf("KERN-EXEC 3 share = %.1f%%, want dominant", rows[0].Percent)
	}
}

func TestFieldStudyCoalescenceNearPaper(t *testing.T) {
	fs, err := RunFieldStudy(smallCfg(13))
	if err != nil {
		t.Fatal(err)
	}
	st := fs.Study.Coalesce()
	if st.TotalPanics < 30 {
		t.Fatalf("too few panics: %d", st.TotalPanics)
	}
	if st.RelatedPercent < 30 || st.RelatedPercent > 72 {
		t.Errorf("related panics = %.1f%% (paper: 51%%)", st.RelatedPercent)
	}
	all := fs.Study.RelatedPercentWithAllShutdowns()
	if all < st.RelatedPercent {
		t.Errorf("all-shutdowns related %.1f%% < standard %.1f%%", all, st.RelatedPercent)
	}
	if all-st.RelatedPercent > 15 {
		t.Errorf("including user shutdowns moved the relation by %.1f points (paper: ~4)",
			all-st.RelatedPercent)
	}
}

func TestFieldStudyOverTCPCollector(t *testing.T) {
	cfg := smallCfg(17)
	cfg.Phones = 4
	cfg.Duration = 2 * phone.StudyMonth
	fs, srv, err := RunFieldStudyWithFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// Weekly periodic uploads plus the final one per phone.
	if srv.Uploads() < 4 {
		t.Errorf("uploads = %d, want at least one per phone", srv.Uploads())
	}
	if got := len(fs.Dataset.Devices()); got != 4 {
		t.Errorf("dataset devices = %d", got)
	}
	if len(fs.Study.Panics()) == 0 && len(fs.Study.HLEvents()) == 0 {
		t.Error("TCP-collected study is empty")
	}
}

func TestFieldStudyDeterminism(t *testing.T) {
	a, err := RunFieldStudy(smallCfg(23))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunFieldStudy(smallCfg(23))
	if err != nil {
		t.Fatal(err)
	}
	ra, rb := a.Study.MTBF(), b.Study.MTBF()
	if ra != rb {
		t.Errorf("MTBF reports diverged: %+v vs %+v", ra, rb)
	}
	if len(a.Study.Panics()) != len(b.Study.Panics()) {
		t.Error("panic counts diverged")
	}
}

func TestForumStudyFacade(t *testing.T) {
	rep := RunForumStudy(5)
	if rep.FailureReports < 500 || rep.FailureReports > 560 {
		t.Errorf("failure reports = %d", rep.FailureReports)
	}
	posts := ForumCorpus(5)
	if len(posts) <= rep.FailureReports {
		t.Errorf("corpus (%d) should include noise beyond the %d reports",
			len(posts), rep.FailureReports)
	}
}

func TestDefaultFieldStudyConfig(t *testing.T) {
	cfg := DefaultFieldStudyConfig(1)
	if cfg.Phones != 25 || cfg.Duration != 14*phone.StudyMonth {
		t.Errorf("defaults = %+v", cfg)
	}
	if cfg.JoinWindow != 9*phone.StudyMonth {
		t.Errorf("join window = %v", cfg.JoinWindow)
	}
}

var _ = time.Second

func TestFieldStudyWithExtensions(t *testing.T) {
	cfg := smallCfg(31)
	cfg.Phones = 4
	cfg.Duration = 2 * phone.StudyMonth
	cfg.WithUserReporter = true
	cfg.WithDExc = true
	fs, err := RunFieldStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(fs.Reporters) != 4 {
		t.Errorf("reporters = %d", len(fs.Reporters))
	}
	if fs.BaselineDataset == nil || len(fs.BaselineDataset.Devices()) != 4 {
		t.Fatal("baseline dataset missing")
	}
	// D_EXC captured the same panic stream the full logger did.
	base := analysis.New(fs.BaselineDataset.AllRecords(), analysis.Options{})
	if got, want := len(base.Panics()), len(fs.Study.Panics()); got != want {
		t.Errorf("baseline panics = %d, full = %d", got, want)
	}
	if len(base.HLEvents()) != 0 {
		t.Error("baseline reconstructed HL events without a heartbeat")
	}
}

func TestFieldStudyRejectsNegativeJoinWindow(t *testing.T) {
	cfg := smallCfg(1)
	cfg.JoinWindow = -time.Hour
	if _, err := RunFieldStudy(cfg); err == nil {
		t.Error("negative join window accepted")
	}
}

func TestFieldStudyDefaultsApplied(t *testing.T) {
	// Zero Phones/Duration fall back to the paper's deployment shape; use
	// a tiny duration override to keep the test fast.
	fs, err := RunFieldStudy(FieldStudyConfig{Seed: 3, Duration: phone.StudyMonth / 2, JoinWindow: 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(fs.Fleet.Devices) != 25 {
		t.Errorf("default fleet size = %d", len(fs.Fleet.Devices))
	}
}

func TestCollectorUploadFailureSurfaces(t *testing.T) {
	cfg := smallCfg(5)
	cfg.Phones = 2
	cfg.Duration = phone.StudyMonth / 2
	cfg.CollectorAddr = "127.0.0.1:1" // nothing listens there
	if _, err := RunFieldStudy(cfg); err == nil {
		t.Error("upload to dead collector did not error")
	}
}

func TestPeriodicUploadsSurviveMasterReset(t *testing.T) {
	// Force frequent service visits; the server-side (merged, periodically
	// uploaded) dataset must retain records the final flash lost to the
	// master reset.
	cfg := FieldStudyConfig{
		Seed:       19,
		Phones:     5,
		Duration:   4 * phone.StudyMonth,
		JoinWindow: 0,
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

	serviced := 0
	for _, d := range fs.Fleet.Devices {
		serviced += d.ServiceVisits()
	}
	if serviced == 0 {
		t.Fatal("no phone was serviced; the scenario did not trigger")
	}

	// Flash-only view: what a final-collection-only study would see.
	flash := 0
	for _, l := range fs.Loggers {
		flash += len(l.Records())
	}
	server := 0
	for _, id := range fs.Dataset.Devices() {
		server += len(fs.Dataset.Records(id))
	}
	if server <= flash {
		t.Errorf("server records (%d) should exceed final flash records (%d) after %d master resets",
			server, flash, serviced)
	}
}
