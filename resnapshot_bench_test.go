package symfail

// BenchmarkResnapshotOverhead is the perf harness for the epoch-snapshot
// lifecycle: over a loaded mid-stream accumulator set (records folded in, not
// sealed) it measures the cost of one non-destructive Snapshot — the deep
// cursor/reducer clone for the exact Tables, the bucket re-render for the
// windowed and decaying views — and writes the grid to BENCH_resnapshot.json
// so `make bench-check` gates the live query tier's read path. Run it alone
// for stable numbers:
//
//	go test -bench BenchmarkResnapshotOverhead -benchtime 20x .

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"

	"symfail/internal/analysis"
	"symfail/internal/analysis/stream"
	"symfail/internal/core"
	"symfail/internal/phone"
)

type resnapshotCell struct {
	Phones          int     `json:"phones"`
	Months          float64 `json:"months"`
	Records         int     `json:"records"`
	Mode            string  `json:"mode"` // which accumulator is snapshotted
	NsPerOp         float64 `json:"nsPerOp"`
	BytesPerOp      float64 `json:"bytesPerOp"`
	AllocsPerOp     float64 `json:"allocsPerOp"`
	SnapshotsPerSec float64 `json:"snapshotsPerSec"`
}

type resnapshotReport struct {
	GOMAXPROCS int              `json:"gomaxprocs"`
	GoVersion  string           `json:"goVersion"`
	Cells      []resnapshotCell `json:"cells"`
}

func BenchmarkResnapshotOverhead(b *testing.B) {
	const phones = 25
	duration := 2 * phone.StudyMonth
	ds, records := streamBenchDataset(b, phones, duration)

	opts := analysis.Options{}
	tables := stream.NewTables(opts)
	window := stream.NewWindowAcc(opts)
	decay := stream.NewDecayAcc(opts)
	f := &stream.Feeder{AddDevice: tables.AddDevice, Observe: func(id string, r core.Record) {
		tables.Observe(id, r)
		window.Observe(id, r)
		decay.Observe(id, r)
	}}
	if err := ds.Stream(f.Begin, f.Record); err != nil {
		b.Fatal(err)
	}
	f.Flush()

	report := resnapshotReport{GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	modes := []struct {
		mode string
		snap func() any
	}{
		{"tables", func() any { return tables.Snapshot() }},
		{"window", func() any { return window.Snapshot() }},
		{"decay", func() any { return decay.Snapshot() }},
	}
	for _, m := range modes {
		var cell resnapshotCell
		b.Run(m.mode, func(b *testing.B) {
			b.ReportAllocs()
			var sink any
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sink = m.snap()
			}
			b.StopTimer()
			if sink == nil {
				b.Fatal("nil snapshot")
			}
			res := testing.BenchmarkResult{N: b.N, T: b.Elapsed()}
			cell = resnapshotCell{
				Phones:  phones,
				Months:  float64(duration) / float64(phone.StudyMonth),
				Records: records,
				Mode:    m.mode,
				NsPerOp: float64(res.NsPerOp()),
			}
			if secs := b.Elapsed().Seconds(); secs > 0 {
				cell.SnapshotsPerSec = float64(b.N) / secs
			}
			b.ReportMetric(cell.SnapshotsPerSec, "snapshots/s")
		})
		if cell.Phones == 0 {
			continue // sub-bench filtered out by -bench
		}
		// B/op and allocs/op for the JSON trajectory, measured outside the
		// timed loop (the harness prints its own via ReportAllocs).
		cell.BytesPerOp, cell.AllocsPerOp = allocsOfOneCall(func() { _ = m.snap() })
		report.Cells = append(report.Cells, cell)
	}
	if len(report.Cells) == 0 {
		return
	}
	blob, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	// BENCH_RESNAPSHOT_OUT redirects the report so `make bench-check` can
	// measure fresh cells without clobbering the committed baseline.
	out := os.Getenv("BENCH_RESNAPSHOT_OUT")
	if out == "" {
		out = "BENCH_resnapshot.json"
	}
	if err := os.WriteFile(out, append(blob, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}
