package symfail

// BenchmarkStudyStreamVsBatch is the perf harness for the streaming
// analysis tier: over a 25-phone and a 1000-phone dataset it measures the
// batch pipeline (materialise AllRecords, build a Study) against the
// single-pass streaming pipeline (Dataset.Stream through a Feeder into the
// composite Tables accumulator), reporting ns/op, B/op and records/sec, and
// writes the grid to BENCH_analysis.json so future PRs have a perf
// trajectory to compare against. Run it alone for stable numbers:
//
//	go test -bench BenchmarkStudyStreamVsBatch -benchtime 5x .

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"symfail/internal/analysis"
	"symfail/internal/analysis/stream"
	"symfail/internal/collect"
	"symfail/internal/phone"
)

// analysisCell is one measured (dataset, pipeline) point.
type analysisCell struct {
	Phones        int     `json:"phones"`
	Months        float64 `json:"months"`
	Records       int     `json:"records"`
	Mode          string  `json:"mode"` // "batch" or "stream"
	NsPerOp       float64 `json:"nsPerOp"`
	BytesPerOp    float64 `json:"bytesPerOp"`
	AllocsPerOp   float64 `json:"allocsPerOp"`
	RecordsPerSec float64 `json:"recordsPerSec"`
}

type analysisReport struct {
	GOMAXPROCS int            `json:"gomaxprocs"`
	GoVersion  string         `json:"goVersion"`
	Cells      []analysisCell `json:"cells"`
}

// streamBenchDataset simulates one fleet and returns its collected dataset plus
// the total record count.
func streamBenchDataset(b *testing.B, phones int, duration time.Duration) (*collect.Dataset, int) {
	b.Helper()
	fs, err := RunFieldStudy(FieldStudyConfig{
		Seed:       2007,
		Phones:     phones,
		Duration:   duration,
		JoinWindow: duration / 4,
	})
	if err != nil {
		b.Fatal(err)
	}
	records := 0
	for _, recs := range fs.Dataset.AllRecords() {
		records += len(recs)
	}
	return fs.Dataset, records
}

func BenchmarkStudyStreamVsBatch(b *testing.B) {
	grid := []struct {
		phones   int
		duration time.Duration
	}{
		{25, 2 * phone.StudyMonth},
		{1000, phone.StudyMonth / 4},
	}
	opts := analysis.Options{}
	report := analysisReport{GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	for _, g := range grid {
		ds, records := streamBenchDataset(b, g.phones, g.duration)
		pipelines := []struct {
			mode string
			run  func() *stream.TablesSnapshot
		}{
			{"batch", func() *stream.TablesSnapshot {
				return analysis.New(ds.AllRecords(), opts).Snapshot()
			}},
			{"stream", func() *stream.TablesSnapshot {
				acc := stream.NewTables(opts)
				f := &stream.Feeder{AddDevice: acc.AddDevice, Observe: acc.Observe}
				if err := ds.Stream(f.Begin, f.Record); err != nil {
					b.Fatal(err)
				}
				f.Flush()
				return acc.Tables()
			}},
		}
		for _, p := range pipelines {
			name := fmt.Sprintf("phones=%d/%s", g.phones, p.mode)
			var cell analysisCell
			b.Run(name, func(b *testing.B) {
				b.ReportAllocs()
				var sink *stream.TablesSnapshot
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sink = p.run()
				}
				b.StopTimer()
				if sink == nil || len(sink.Devices) != g.phones {
					b.Fatalf("snapshot covers %d devices, want %d", len(sink.Devices), g.phones)
				}
				res := testing.BenchmarkResult{N: b.N, T: b.Elapsed()}
				cell = analysisCell{
					Phones:  g.phones,
					Months:  float64(g.duration) / float64(phone.StudyMonth),
					Records: records,
					Mode:    p.mode,
					NsPerOp: float64(res.NsPerOp()),
				}
				if secs := b.Elapsed().Seconds(); secs > 0 {
					cell.RecordsPerSec = float64(records) * float64(b.N) / secs
				}
				b.ReportMetric(cell.RecordsPerSec, "records/s")
			})
			if cell.Phones == 0 {
				continue // sub-bench filtered out by -bench
			}
			// B/op and allocs/op for the JSON trajectory, measured outside
			// the timed loop (the harness prints its own via ReportAllocs).
			cell.BytesPerOp, cell.AllocsPerOp = allocsOfOneCall(func() { _ = p.run() })
			report.Cells = append(report.Cells, cell)
		}
	}
	if len(report.Cells) == 0 {
		return
	}
	blob, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	// BENCH_ANALYSIS_OUT redirects the report so `make bench-check` can
	// measure a fresh grid without clobbering the committed baseline.
	out := os.Getenv("BENCH_ANALYSIS_OUT")
	if out == "" {
		out = "BENCH_analysis.json"
	}
	if err := os.WriteFile(out, append(blob, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}

// allocsOfOneCall returns the bytes and allocations of one call of fn.
// The count depends on which P last returned fmt's printer (and any other
// sync.Pool item) fn uses: a garbage collection empties the pools into
// their per-P victim caches, and a Get sees only its own P's cache, so at
// GOMAXPROCS > 1 the measured call allocated a fresh printer or not as the
// scheduler chose. Pinning GOMAXPROCS to 1 for the window, as
// testing.AllocsPerRun does, and warming fn under the pin leaves the
// pooled items on the one P the measured call runs on; with the collector
// paused inside the window, no collection empties them mid-call.
func allocsOfOneCall(fn func()) (bytes, allocs float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fn()
	var before, after runtime.MemStats
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc - before.TotalAlloc), float64(after.Mallocs - before.Mallocs)
}
