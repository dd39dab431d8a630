package phone

import (
	"reflect"
	"testing"
	"time"

	"symfail/internal/sim"
	"symfail/internal/symbos"
)

// TestRecentActivityReplyTracksLog: the Database Log Server re-encodes its
// OpRecentActivity reply only after the activity log changed, so after
// every start, end and trim at activityLogCap the reply must equal a fresh
// encoding of the ten newest records. Alongside, the in-place trim must
// keep the same records as the reslice it replaced.
func TestRecentActivityReplyTracksLog(t *testing.T) {
	// Only the test touches the activity log: the user never starts an
	// activity and nothing takes the phone down.
	d, eng := newTestDevice(t, 29, func(c *Config) {
		c.ActivitiesPerDay = 1e-9
		c.PanicOpportunityPerHour = 0
		c.SpontaneousFreezePerHour = 0
		c.SpontaneousShutdownPerHour = 0
		c.NightOffProb = 0
		c.DayOffPerHour = 0
	})
	eng.Step() // boot
	sess := d.DBLogServer().Connect(d.Kernel().StartProcess("ReplyClient", false).Main())

	// oracle is the log as the old recordActivityStart kept it: append,
	// then reslice to the newest activityLogCap records.
	oracle := append([]ActivityRecord(nil), d.activityLog...)
	check := func(step string) {
		t.Helper()
		resp, code := sess.Query(OpRecentActivity, "")
		if code != symbos.KErrNone {
			t.Fatalf("%s: OpRecentActivity completed with %s", step, symbos.ErrName(code))
		}
		if want := encodeActivity(d.recentActivity(10)); string(resp) != want {
			t.Fatalf("%s: reply %q, want %q", step, resp, want)
		}
		if !reflect.DeepEqual(d.activityLog, oracle) {
			t.Fatalf("%s: log %v, want %v", step, d.activityLog, oracle)
		}
	}
	check("boot")
	kinds := []Activity{ActVoiceCall, ActMessage}
	trims := 0
	for i := 0; i < 3*activityLogCap; i++ {
		eng.Run(eng.Now().Add(time.Minute))
		kind := kinds[i%2]
		if len(d.activityLog) == activityLogCap {
			trims++
		}
		d.recordActivityStart(kind)
		oracle = append(oracle, ActivityRecord{Kind: kind, Start: eng.Now(), End: sim.Never})
		if len(oracle) > activityLogCap {
			oracle = oracle[len(oracle)-activityLogCap:]
		}
		check("start")
		check("unchanged") // a repeated query is served from the kept reply
		if i%3 != 0 {
			continue // leave some records open across later starts
		}
		eng.Run(eng.Now().Add(time.Minute))
		d.recordActivityEnd(kind)
		for j := len(oracle) - 1; j >= 0; j-- {
			if oracle[j].Kind == kind && oracle[j].Ongoing() {
				oracle[j].End = eng.Now()
				break
			}
		}
		check("end")
	}
	if trims < activityLogCap {
		t.Errorf("only %d starts trimmed a full log", trims)
	}
	if len(d.activityLog) != activityLogCap {
		t.Errorf("log holds %d records, want the cap %d", len(d.activityLog), activityLogCap)
	}
}
