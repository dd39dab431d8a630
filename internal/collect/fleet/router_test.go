package fleet

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"

	"symfail/internal/collect"
	"symfail/internal/core"
)

// routed returns the fleet's routed-request count — the counter the kill
// and beat schedules advance on.
func routed(f *Supervisor) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.requests
}

// TestRouterAnswersQuery: the router answers QUERY itself from
// Config.Query, with the server's reply rules, while shard deliveries feed
// the hook's state concurrently — and a read never reaches the
// routed-request count or the below-quorum gate.
func TestRouterAnswersQuery(t *testing.T) {
	var mu sync.Mutex
	records := 0
	f, err := New(Config{
		Servers: 3,
		OnRecord: func(string, core.Record) {
			mu.Lock()
			records++
			mu.Unlock()
		},
		Query: func(name string, args []string) (string, error) {
			switch name {
			case "status":
				mu.Lock()
				defer mu.Unlock()
				return strconv.Itoa(records), nil
			case "multi":
				return "one\ntwo", nil
			}
			return "", fmt.Errorf("unknown query %q", name)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	// Uploads and queries race: router goroutines call the hook while
	// shard handlers deliver into the state it reads.
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(2)
		dev := fmt.Sprintf("phone-%02d", i+1)
		go func() {
			defer wg.Done()
			for j := int64(1); j <= 8; j++ {
				if err := collect.Upload(f.Addr(), dev, fleetTestLog(j)); err != nil {
					t.Errorf("upload %s: %v", dev, err)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for j := 0; j < 8; j++ {
				if _, err := collect.Query(f.Addr(), "status"); err != nil {
					t.Errorf("status query during uploads: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()

	before := routed(f)
	if got, err := collect.Query(f.Addr(), "status"); err != nil || got == "0" {
		t.Errorf("status query = %q, %v; want the tapped record count", got, err)
	}
	if _, err := collect.Query(f.Addr(), "multi"); err == nil || !strings.Contains(err.Error(), "not single-line") {
		t.Errorf("multi-line answer not rejected: %v", err)
	}
	if _, err := collect.Query(f.Addr(), "nope"); err == nil || !strings.Contains(err.Error(), "unknown query") {
		t.Errorf("hook error not relayed: %v", err)
	}
	if after := routed(f); after != before {
		t.Errorf("queries advanced the routed-request count %d -> %d", before, after)
	}

	// Below quorum every write is refused, but a read is not a write.
	if err := f.CutPower("shard-01"); err != nil {
		t.Fatal(err)
	}
	if err := f.CutPower("shard-02"); err != nil {
		t.Fatal(err)
	}
	if err := collect.Upload(f.Addr(), "phone-01", fleetTestLog(99)); !collect.IsBelowQuorum(err) {
		t.Fatalf("fleet not below quorum: %v", err)
	}
	degraded, before := f.DegradedRequests(), routed(f)
	if _, err := collect.Query(f.Addr(), "status"); err != nil {
		t.Errorf("status query below quorum: %v", err)
	}
	if f.DegradedRequests() != degraded || routed(f) != before {
		t.Error("a below-quorum query was gated or counted as a routed request")
	}

	// Without a hook the router answers like a server without one.
	bare, err := New(Config{Servers: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Close()
	if _, err := collect.Query(bare.Addr(), "status"); err == nil || !strings.Contains(err.Error(), "ERR queries not served") {
		t.Errorf("nil hook answered %v, want ERR queries not served", err)
	}
	if n := routed(bare); n != 0 {
		t.Errorf("an unserved query counted %d routed requests", n)
	}
}
