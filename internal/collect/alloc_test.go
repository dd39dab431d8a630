//go:build !race

package collect

import (
	"testing"

	"symfail/internal/core"
)

// TestRecordAckedResendAllocs extends the repo-wide allocation ratchet
// (TestAllocBudgets at the module root) to the acked-record ledger, which
// is unexported: a re-sent stream whose every record is already acked costs
// a frame walk and one raw-payload lookup per record, and allocates
// nothing. Built without -race only (instrumentation allocates).
func TestRecordAckedResendAllocs(t *testing.T) {
	const budget = 0
	var stream []byte
	for i := 0; i < 64; i++ {
		stream = core.AppendFrame(stream, core.AppendRecord(nil, core.Record{
			Kind: core.KindPanic, Time: int64(i), Category: "KERN-EXEC",
			PType: 3, Apps: []string{"phone"}, Activity: "idle",
		}))
	}
	s := &Server{ackedKeys: make(map[string]map[string]struct{})}
	s.recordAckedLocked("p", stream)
	if n := len(s.ackedKeys["p"]); n != 64 {
		t.Fatalf("acked %d records, want 64", n)
	}
	if avg := testing.AllocsPerRun(500, func() { s.recordAckedLocked("p", stream) }); avg > budget {
		t.Errorf("collect: recordAcked re-send: %.1f allocs/op in steady state, budget %d", avg, budget)
	}
}
