package collect

import (
	"bufio"
	"errors"
	"fmt"
	"hash/crc32"
	"net"
	"strconv"
	"strings"
	"time"

	"symfail/internal/sim"
)

// Transport is how the uploader talks to the collection server. The real
// implementation is NetTransport; FaultyTransport wraps any Transport with
// deterministic, seed-driven network adversity.
type Transport interface {
	// UploadChunk appends chunk at offset of the device's server-side
	// stream and returns the server's acknowledged stream length.
	UploadChunk(addr, deviceID string, offset int, chunk []byte) (ackedLen int, err error)
	// Offset asks the server how much of the device's stream it holds and
	// the CRC-32C of those bytes (for client-side resync).
	Offset(addr, deviceID string) (length int, sum uint32, err error)
}

// ErrRefused is the injected connection-refusal error: the connection
// never happened and no payload byte flowed (the uploader's
// BytesRetransmitted accounting relies on telling refusals apart from
// transfers that died mid-flight).
var ErrRefused = errors.New("collect: connection refused (injected)")

// rawChunkSender is the optional capability FaultyTransport uses to model
// in-flight damage: the header declares (length, checksum of) the intended
// chunk while the body bytes actually sent differ — a truncated prefix for
// a mid-transfer drop, a bit-flipped copy for payload corruption.
type rawChunkSender interface {
	uploadChunkRaw(addr, deviceID string, offset int, declared, body []byte) (int, error)
}

// NetTransport speaks the wire protocol over real TCP.
type NetTransport struct{}

func dialCollect(addr string) (net.Conn, error) {
	conn, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return nil, transient(fmt.Errorf("collect: dial %s: %w", addr, err))
	}
	//symlint:allow determinism network I/O deadline on a real socket, not simulated time
	if err := conn.SetDeadline(time.Now().Add(30 * time.Second)); err != nil {
		conn.Close()
		return nil, transient(fmt.Errorf("collect: deadline: %w", err))
	}
	return conn, nil
}

// UploadChunk implements Transport.
func (t NetTransport) UploadChunk(addr, deviceID string, offset int, chunk []byte) (int, error) {
	return t.uploadChunkRaw(addr, deviceID, offset, chunk, chunk)
}

// uploadChunkRaw sends a header describing declared while putting body on
// the wire. UploadChunk passes the same slice for both; FaultyTransport
// passes a truncated or bit-flipped body to model in-flight damage.
func (NetTransport) uploadChunkRaw(addr, deviceID string, offset int, declared, body []byte) (int, error) {
	if err := checkChunkArgs(deviceID, offset, declared); err != nil {
		return 0, err
	}
	conn, err := dialCollect(addr)
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	if _, err := fmt.Fprintf(conn, "CHUNK %s %d %d %08x\n",
		deviceID, offset, len(declared), crc32.Checksum(declared, castagnoli)); err != nil {
		return 0, transient(fmt.Errorf("collect: send header: %w", err))
	}
	if _, err := conn.Write(body); err != nil {
		return 0, transient(fmt.Errorf("collect: send chunk: %w", err))
	}
	if len(body) < len(declared) {
		// A dropped connection never sees the server's reply.
		return 0, errors.New("collect: connection dropped mid-transfer (injected)")
	}
	reply, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil {
		return 0, transient(fmt.Errorf("collect: read reply: %w", err))
	}
	fields := strings.Fields(strings.TrimSpace(reply))
	if len(fields) != 2 || fields[0] != "OK" {
		return 0, rejected("chunk", reply)
	}
	n, err := strconv.Atoi(fields[1])
	if err != nil || n < 0 {
		return 0, fmt.Errorf("collect: bad ack %q", reply)
	}
	return n, nil
}

// Offset implements Transport.
func (NetTransport) Offset(addr, deviceID string) (int, uint32, error) {
	if strings.ContainsAny(deviceID, " \n\t") || deviceID == "" {
		return 0, 0, fmt.Errorf("collect: invalid device id %q", deviceID)
	}
	conn, err := dialCollect(addr)
	if err != nil {
		return 0, 0, err
	}
	defer conn.Close()
	if _, err := fmt.Fprintf(conn, "OFFSET %s\n", deviceID); err != nil {
		return 0, 0, transient(fmt.Errorf("collect: send header: %w", err))
	}
	reply, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil {
		return 0, 0, transient(fmt.Errorf("collect: read reply: %w", err))
	}
	fields := strings.Fields(strings.TrimSpace(reply))
	if len(fields) != 3 || fields[0] != "OK" {
		return 0, 0, rejected("offset query", reply)
	}
	n, err := strconv.Atoi(fields[1])
	if err != nil || n < 0 {
		return 0, 0, fmt.Errorf("collect: bad offset %q", reply)
	}
	sum, err := strconv.ParseUint(fields[2], 16, 32)
	if err != nil {
		return 0, 0, fmt.Errorf("collect: bad stream checksum %q", reply)
	}
	return n, uint32(sum), nil
}

func checkChunkArgs(deviceID string, offset int, chunk []byte) error {
	if strings.ContainsAny(deviceID, " \n\t") || deviceID == "" {
		return fmt.Errorf("collect: invalid device id %q", deviceID)
	}
	if offset < 0 || offset+len(chunk) > MaxUploadBytes {
		return ErrTooLarge
	}
	return nil
}

// RetryNetTransport is NetTransport with bounded host-time retries on
// transport-level failures: dial errors, dead connections, lost replies.
// The sharded fleet path uses it so that shard and router kill windows —
// host-time phenomena measured in milliseconds — never surface to the
// simulated uploader, whose shortest retry is half an hour of simulated
// time; a window crossing a master reset would otherwise destroy records
// the single-server study delivered. Protocol rejections (a parsed ERR
// reply) are real answers, not windows, and pass through unretried; so
// does every injected FaultyTransport fault, which either never reaches
// this layer or arrives via the raw path below.
type RetryNetTransport struct{}

// Retry classes. A client error that belongs to one wraps the class's
// sentinel where the dial, I/O or reply error is made, so callers test the
// class with errors.Is and the error text plays no part: a device ID or a
// server reason that merely contains a word like "dial" or "quorum" is not
// classed.
var (
	// ErrTransient marks a transport-level window that heals with time: the
	// connection failed somewhere between dial and the reply line, or the
	// fleet router could not reach the device's shard.
	ErrTransient = errors.New("collect: transient transport failure")
	// ErrBelowQuorum marks the fleet's retryable below-quorum rejection.
	ErrBelowQuorum = errors.New("collect: below write quorum (retryable)")
)

// classedError tags an error with a retry class without changing its text.
type classedError struct{ err, class error }

func (e *classedError) Error() string   { return e.err.Error() }
func (e *classedError) Unwrap() []error { return []error{e.err, e.class} }

// transient classes err as ErrTransient.
func transient(err error) error { return &classedError{err: err, class: ErrTransient} }

// rejected is the error for a parsed non-OK reply to verb. Its class comes
// from the reply's protocol reason, the word after "ERR": "quorum" is the
// fleet's below-quorum refusal (the server's "ERR quorum not met" and the
// router gate's "ERR quorum unavailable"), and "shard unavailable" is the
// router's lost shard. Every other rejection is a real answer and has no
// retry class.
func rejected(verb, reply string) error {
	reply = strings.TrimSpace(reply)
	err := fmt.Errorf("collect: server rejected %s: %s", verb, reply)
	switch {
	case strings.HasPrefix(reply, "ERR quorum "):
		return &classedError{err: err, class: ErrBelowQuorum}
	case reply == "ERR shard unavailable":
		return transient(err)
	}
	return err
}

// IsBelowQuorum reports whether an error is the fleet's retryable
// below-quorum rejection: the write was refused (or committed locally but
// not replicated) because fewer than W shards were reachable. It is an
// honest "not yet durable enough" — the uploader's backoff, or this layer's
// host-time retry, absorbs it until quorum returns.
func IsBelowQuorum(err error) bool { return errors.Is(err, ErrBelowQuorum) }

// IsTransient reports whether an error names a transport-level window — a
// dead connection or an unreachable shard — rather than a protocol answer.
// Callers with their own host-time retry loops (the end-of-study upload)
// use it to keep waiting out a slow server restart instead of failing fast.
func IsTransient(err error) bool { return errors.Is(err, ErrTransient) }

// The budget is deliberately generous (3s of host time): on a loaded
// single-CPU host a restarting shard's WAL replay competes with every
// simulation worker for the one core, and a kill window that outlives
// this loop surfaces a transport error the simulated uploader answers
// with half an hour of simulated backoff — changing the collected bytes.
func retryNet(do func() error) {
	for attempt := 0; attempt < 600; attempt++ {
		if attempt > 0 {
			// Host-time pause while a real router/shard rebinds; the
			// simulation never observes it.
			//symlint:allow determinism host-time pause while a real TCP peer rebinds
			time.Sleep(5 * time.Millisecond)
		}
		// A below-quorum ERR is a parsed protocol reply, but unlike other
		// rejections it names a transient fleet state (a shard restarting
		// inside its kill window), so it retries like a dead connection.
		if err := do(); !IsTransient(err) && !IsBelowQuorum(err) {
			return
		}
	}
}

// UploadChunk implements Transport with transient-failure retries.
func (RetryNetTransport) UploadChunk(addr, deviceID string, offset int, chunk []byte) (n int, err error) {
	retryNet(func() error {
		n, err = NetTransport{}.UploadChunk(addr, deviceID, offset, chunk)
		return err
	})
	return n, err
}

// Offset implements Transport with transient-failure retries.
func (RetryNetTransport) Offset(addr, deviceID string) (n int, sum uint32, err error) {
	retryNet(func() error {
		n, sum, err = NetTransport{}.Offset(addr, deviceID)
		return err
	})
	return n, sum, err
}

// uploadChunkRaw passes injected in-flight damage through unretried: a
// truncated or corrupted body is a deterministic fault draw, and retrying
// it would turn injected adversity into a different experiment.
func (RetryNetTransport) uploadChunkRaw(addr, deviceID string, offset int, declared, body []byte) (int, error) {
	return NetTransport{}.uploadChunkRaw(addr, deviceID, offset, declared, body)
}

// NetFaults calibrates the network adversity model. The zero value is a
// perfect network.
type NetFaults struct {
	// RefuseProb is the chance a connection attempt is refused outright
	// (no bearer — the phone is out of coverage).
	RefuseProb float64
	// DropProb is the chance the connection dies mid-transfer: the server
	// receives a header and a prefix of the payload, then EOF.
	DropProb float64
	// CorruptProb is the chance one bit of the payload flips in flight
	// (the server's checksum rejects the chunk).
	CorruptProb float64
	// DropAckProb is the chance the transfer succeeds but the
	// acknowledgement never reaches the phone — the classic two-generals
	// hazard that makes idempotent merge mandatory.
	DropAckProb float64
}

// Enabled reports whether any network fault mode is active.
func (c NetFaults) Enabled() bool {
	return c.RefuseProb > 0 || c.DropProb > 0 || c.CorruptProb > 0 || c.DropAckProb > 0
}

// FaultyTransport injects deterministic network faults in front of an inner
// Transport. All randomness comes from the supplied RNG (a Split() child of
// the owning device's stream), so a given seed and fault config always
// produce the same failure sequence. Not safe for sharing across devices:
// give each device its own wrapper and RNG.
type FaultyTransport struct {
	inner  Transport
	faults NetFaults
	rng    *sim.Rand

	refused   int
	dropped   int
	corrupted int
	lostAcks  int
}

// NewFaultyTransport wraps inner (nil means NetTransport) with the given
// fault calibration.
func NewFaultyTransport(inner Transport, faults NetFaults, rng *sim.Rand) *FaultyTransport {
	if inner == nil {
		inner = NetTransport{}
	}
	return &FaultyTransport{inner: inner, faults: faults, rng: rng}
}

// UploadChunk implements Transport with injected adversity. The fault draws
// happen in a fixed order (refuse, drop, corrupt, ack-loss) so the stream
// consumption per call is reproducible.
func (t *FaultyTransport) UploadChunk(addr, deviceID string, offset int, chunk []byte) (int, error) {
	if t.rng.Bool(t.faults.RefuseProb) {
		t.refused++
		return 0, ErrRefused
	}
	if len(chunk) > 0 && t.rng.Bool(t.faults.DropProb) {
		t.dropped++
		sendOnly := t.rng.Intn(len(chunk))
		if rs, ok := t.inner.(rawChunkSender); ok {
			return rs.uploadChunkRaw(addr, deviceID, offset, chunk, chunk[:sendOnly])
		}
		return 0, errors.New("collect: connection dropped mid-transfer (injected)")
	}
	if len(chunk) > 0 && t.rng.Bool(t.faults.CorruptProb) {
		t.corrupted++
		bad := append([]byte(nil), chunk...)
		bit := t.rng.Intn(len(bad) * 8)
		bad[bit/8] ^= 1 << (bit % 8)
		// The header still describes the intended chunk — the damage is
		// in flight, so the server's checksum must catch it.
		if rs, ok := t.inner.(rawChunkSender); ok {
			return rs.uploadChunkRaw(addr, deviceID, offset, chunk, bad)
		}
		return 0, errors.New("collect: payload corrupted in flight (injected)")
	}
	acked, err := t.inner.UploadChunk(addr, deviceID, offset, chunk)
	if err == nil && t.rng.Bool(t.faults.DropAckProb) {
		t.lostAcks++
		return 0, errors.New("collect: acknowledgement lost (injected)")
	}
	return acked, err
}

// Offset implements Transport; only connection refusal applies (the reply
// is a dozen bytes — corruption there is a rounding error next to payload
// corruption, and modelling it would not exercise new recovery paths).
func (t *FaultyTransport) Offset(addr, deviceID string) (int, uint32, error) {
	if t.rng.Bool(t.faults.RefuseProb) {
		t.refused++
		return 0, 0, ErrRefused
	}
	return t.inner.Offset(addr, deviceID)
}

// Injected returns the per-mode injected fault counts (ground truth for
// experiments).
func (t *FaultyTransport) Injected() (refused, dropped, corrupted, lostAcks int) {
	return t.refused, t.dropped, t.corrupted, t.lostAcks
}
