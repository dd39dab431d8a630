package collect

import (
	"bufio"
	"errors"
	"net"
	"testing"
)

// replyServer answers every connection's first line with reply and
// returns its address.
func replyServer(t *testing.T, reply string) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			if _, err := bufio.NewReader(conn).ReadString('\n'); err == nil {
				_, _ = conn.Write([]byte(reply + "\n"))
			}
			conn.Close()
		}
	}()
	return l.Addr().String()
}

// TestErrorClassesIgnoreText is the regression test for text-matched error
// classes: a device ID or a server reason that merely contains "dial",
// "deadline" or "quorum" must not be classed as transient or below quorum
// (the host-time retry loop used to spin for seconds on them), while the
// real classes still are.
func TestErrorClassesIgnoreText(t *testing.T) {
	unclassed := map[string]error{}
	for _, id := range []string{"dial 7", "quorum x", "deadline\t1"} {
		_, err := (NetTransport{}).UploadChunk("127.0.0.1:1", id, 0, []byte("x"))
		unclassed["chunk "+id] = err
		unclassed["upload "+id] = Upload("127.0.0.1:1", id, []byte("x"))
		unclassed["fin "+id] = Fin("127.0.0.1:1", id)
	}
	unclassed["reason mentions dial"] = Fin(replyServer(t, "ERR gap: dial 7 read reply"), "p")
	unclassed["reason mentions quorum"] = Fin(replyServer(t, "ERR bad header quorum"), "p")
	for name, err := range unclassed {
		if err == nil {
			t.Fatalf("%s: no error", name)
		}
		if IsTransient(err) || IsBelowQuorum(err) {
			t.Errorf("%s: %v classed transient=%v below-quorum=%v, want neither",
				name, err, IsTransient(err), IsBelowQuorum(err))
		}
		calls := 0
		retryNet(func() error { calls++; return err })
		if calls != 1 {
			t.Errorf("%s: retryNet tried %d times, want 1", name, calls)
		}
	}

	closed, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := closed.Addr().String()
	closed.Close()
	if err := Fin(deadAddr, "p"); !IsTransient(err) || IsBelowQuorum(err) {
		t.Errorf("dial to a closed port: %v, want transient only", err)
	}
	if err := Fin(replyServer(t, "ERR shard unavailable"), "p"); !IsTransient(err) || IsBelowQuorum(err) {
		t.Errorf("router shard loss: %v, want transient only", err)
	}
	for _, reply := range []string{
		"ERR quorum not met: committed locally, not replicated (retryable)",
		"ERR quorum unavailable: fewer than 2 shards reachable (retryable)",
	} {
		err := Fin(replyServer(t, reply), "p")
		if !IsBelowQuorum(err) || IsTransient(err) {
			t.Errorf("%q: %v, want below quorum only", reply, err)
		}
		if want := "collect: server rejected fin: " + reply; err.Error() != want {
			t.Errorf("error text %q, want %q", err, want)
		}
		if !errors.Is(err, ErrBelowQuorum) {
			t.Errorf("%v does not wrap ErrBelowQuorum", err)
		}
	}
}
