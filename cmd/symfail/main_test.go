package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"symfail"
	"symfail/internal/phone"
)

// captureStdout redirects os.Stdout around fn.
func captureStdout(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	defer func() { os.Stdout = old }()
	runErr := fn()
	_ = w.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(r); err != nil {
		t.Fatal(err)
	}
	return buf.String(), runErr
}

func TestRunQuickPrintsEveryArtefact(t *testing.T) {
	out, err := captureStdout(t, func() error {
		return run([]string{"-quick", "-seed", "5"})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"Table 1", "Section 4.1", "Figure 2", "Section 6",
		"Table 2", "Figure 3", "Figure 4", "Figure 5",
		"Table 3", "Figure 6", "Table 4",
		"MTBFr", "KERN-EXEC 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRunExtras(t *testing.T) {
	out, err := captureStdout(t, func() error {
		return run([]string{"-quick", "-seed", "5", "-extras"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Extras — analyses beyond the paper") {
		t.Error("extras section missing")
	}
	if !strings.Contains(out, "user-reported output failures") {
		t.Error("user-report section missing")
	}
}

func TestRunBadFlag(t *testing.T) {
	_, err := captureStdout(t, func() error {
		return run([]string{"-definitely-not-a-flag"})
	})
	if err == nil {
		t.Error("bad flag accepted")
	}
}

// TestRunWorkersEquivalent runs the same quick study serially and sharded
// and requires identical output — every table, figure and headline number —
// modulo the one line that reports wall-clock time, which is exactly the
// only thing -workers may change.
func TestRunWorkersEquivalent(t *testing.T) {
	strip := func(out string) string {
		var kept []string
		for _, line := range strings.Split(out, "\n") {
			if strings.Contains(line, "wall-clock") {
				continue
			}
			kept = append(kept, line)
		}
		return strings.Join(kept, "\n")
	}
	serial, err := captureStdout(t, func() error {
		return run([]string{"-quick", "-seed", "5", "-workers", "1"})
	})
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := captureStdout(t, func() error {
		return run([]string{"-quick", "-seed", "5", "-workers", "4"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if strip(serial) != strip(sharded) {
		t.Error("-workers 4 changed the printed study; parallelism must be output-invariant")
	}
}

// TestRunTCPEveryFleetSize: the TCP study runs through the one fleet path
// at every -servers value, with the fleet counters and the live tap printed.
func TestRunTCPEveryFleetSize(t *testing.T) {
	for _, servers := range []string{"1", "3"} {
		out, err := captureStdout(t, func() error {
			return run([]string{"-quick", "-seed", "5", "-tcp", "-stream", "-servers", servers})
		})
		if err != nil {
			t.Fatalf("-servers %s: %v", servers, err)
		}
		for _, want := range []string{"collection fleet: " + servers + " shards live", "live server tap:", "Table 2"} {
			if !strings.Contains(out, want) {
				t.Errorf("-servers %s: output missing %q", servers, want)
			}
		}
	}
}

// TestRunServerKillAnyFleetSize: -server-kill is the one kill flag, valid
// on a sharded fleet; the old -fleet-kill spelling is gone.
func TestRunServerKillAnyFleetSize(t *testing.T) {
	out, err := captureStdout(t, func() error {
		return run([]string{"-quick", "-seed", "5", "-tcp", "-servers", "3", "-server-kill", "12"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "zero acknowledged records lost") {
		t.Error("kill summary missing from a -server-kill fleet run")
	}
	_, err = captureStdout(t, func() error {
		return run([]string{"-quick", "-tcp", "-servers", "3", "-fleet-kill", "12"})
	})
	if err == nil || !strings.Contains(err.Error(), "fleet-kill") {
		t.Errorf("-fleet-kill accepted (err %v); want an unknown-flag error", err)
	}
}

// TestLiveFromDatasetMatchesStudy: re-feeding a collected dataset into a
// live study reproduces the batch study's exact tables when every device
// has records.
func TestLiveFromDatasetMatchesStudy(t *testing.T) {
	cfg := symfail.DefaultFieldStudyConfig(5)
	cfg.Phones = 4
	cfg.Duration = 2 * phone.StudyMonth
	cfg.JoinWindow = 0
	fs, err := symfail.RunFieldStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range fs.Dataset.Devices() {
		if len(fs.Dataset.Records(id)) == 0 {
			t.Fatalf("device %s has no records; the comparison needs every device populated", id)
		}
	}
	live, err := liveFromDataset(fs.Dataset, cfg.Analysis)
	if err != nil {
		t.Fatal(err)
	}
	if live.Reordered() != 0 || live.Duplicates() != 0 {
		t.Errorf("re-feed reordered %d and duplicated %d records", live.Reordered(), live.Duplicates())
	}
	got, _ := json.Marshal(live.Tables())
	want, _ := json.Marshal(fs.Study.Snapshot())
	if string(got) != string(want) {
		t.Errorf("live tables diverged from the study:\n got %s\nwant %s", got, want)
	}
}
