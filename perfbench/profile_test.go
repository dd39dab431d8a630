package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"testing"
	"time"

	"symfail/internal/core"
	"symfail/internal/sim"
)

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"symfail/internal/sim.(*Engine).Run":                  "sim",
		"symfail/internal/collect/fleet.(*Supervisor).tap":    "fleet",
		"symfail/internal/collect.(*Server).handleChunk":      "collect",
		"symfail/internal/analysis/stream.(*Tables).Observe":  "stream",
		"symfail/internal/analysis.FromCollect":               "analysis",
		"symfail/internal/core.ParseRecords.func1":            "core",
		"symfail/internal/forum.Generate":                     "",
		"symfail.RunFieldStudy":                               "",
		"runtime.gcBgMarkWorker":                              "",
		"symfail/internal/symbos.(*FileServer).handle-fm":     "symbos",
		"symfail/internal/phone.(*Device).boot":               "phone",
		"symfail/internal/report.Figure2":                     "report",
		"symfail/internal/simulation.Fake":                    "",
		"symfail/internal/collect/fleetx.(*Supervisor).Close": "",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// A sample goes to the innermost layer frame, and to runtime when it has
// none; codec time is core time reached through a codec entry point.
func TestAttributeInnermostLayer(t *testing.T) {
	p := &cpuProfile{
		stacks: [][]string{
			{"runtime.mallocgc", "symfail/internal/core.AppendRecord", "symfail/internal/collect.(*Server).handleChunk"},
			{"strconv.ParseInt", "symfail/internal/core.parseRecord", "symfail/internal/core.ParseRecords", "symfail/internal/collect.(*Dataset).PutMerged"},
			{"symfail/internal/core.(*daemon).writeBeat", "symfail/internal/sim.(*Engine).Run"},
			{"symfail/internal/analysis/stream.(*Tables).Observe", "symfail/internal/core.ScanRecords"},
			{"runtime.gcBgMarkWorker"},
			{"symfail.RunFieldStudy", "main.main"},
		},
		weight: []int64{10, 20, 30, 15, 20, 5},
	}
	shares, codec := attribute(p)
	want := map[string]float64{"core": 0.6, "stream": 0.15, "runtime": 0.25}
	for _, l := range layers {
		if math.Abs(shares[l]-want[l]) > 1e-12 {
			t.Errorf("%s share %g, want %g", l, shares[l], want[l])
		}
	}
	if math.Abs(codec-0.3) > 1e-12 {
		t.Errorf("codec share %g, want 0.3 (AppendRecord and ParseRecords, not writeBeat or the ScanRecords callback)", codec)
	}
}

// Profile-to-module attribution of a real CPU profile: the shares of every
// layer sum to 1 and the work the profile watched lands in its layers.
func TestAttributeRealProfileSumsToOne(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiling unavailable: %v", err)
	}
	deadline := time.Now().Add(400 * time.Millisecond)
	rng := sim.NewRand(1)
	var dst []byte
	for time.Now().Before(deadline) {
		r := core.Record{Time: int64(rng.Uint64() >> 1), Kind: core.KindPanic, Category: "KERN-EXEC", PType: 3}
		dst = core.AppendRecordLine(dst[:0], r)
		_ = core.ParseRecords(dst)
	}
	pprof.StopCPUProfile()
	p, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.stacks) < 10 {
		t.Skipf("only %d profile samples", len(p.stacks))
	}
	shares, codec := attribute(p)
	sum := 0.0
	for _, l := range layers {
		sum += shares[l]
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %g, want 1: %v", sum, shares)
	}
	if shares["core"] < 0.3 || codec <= 0 || codec > shares["core"]+1e-12 {
		t.Errorf("core share %g, codec share %g: the codec loop should land in core", shares["core"], codec)
	}
}
