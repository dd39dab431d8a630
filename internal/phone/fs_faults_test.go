package phone

import (
	"bytes"
	"testing"

	"symfail/internal/sim"
)

func TestFSTornWriteOnCrash(t *testing.T) {
	fs := NewFS()
	fs.EnableFaults(FlashFaults{TornWriteProb: 1}, sim.NewRand(3))
	fs.Write("log", []byte("stable-prefix|"))
	fs.Append("log", []byte("in-flight-record"))
	fs.Crash()
	data, ok := fs.Read("log")
	if !ok {
		t.Fatal("file vanished")
	}
	if !bytes.HasPrefix(data, []byte("stable-prefix|")) {
		t.Fatalf("crash damaged the synced prefix: %q", data)
	}
	if len(data) >= len("stable-prefix|in-flight-record") {
		t.Fatalf("in-flight append survived the crash whole: %q", data)
	}
	if fs.TornWrites() != 1 {
		t.Errorf("TornWrites = %d", fs.TornWrites())
	}
	// A second crash with nothing in flight tears nothing further.
	before := len(data)
	fs.Crash()
	data, _ = fs.Read("log")
	if len(data) != before {
		t.Error("crash with no write in flight changed the file")
	}
}

// TestFSTornInPlaceRewrite: a rewrite lands in the file's old backing
// array, and a crash while it is in flight still tears it to a strict
// prefix of the new contents — never a mix with the old ones.
func TestFSTornInPlaceRewrite(t *testing.T) {
	fs := NewFS()
	fs.EnableFaults(FlashFaults{TornWriteProb: 1}, sim.NewRand(5))
	fs.Write("beats", []byte("old-contents-that-are-longer"))
	next := []byte("new-contents")
	fs.Write("beats", next)
	fs.Crash()
	data, _ := fs.Read("beats")
	if len(data) >= len(next) || !bytes.HasPrefix(next, data) {
		t.Fatalf("torn rewrite = %q, want a strict prefix of %q", data, next)
	}
	if fs.TornWrites() != 1 {
		t.Errorf("TornWrites = %d", fs.TornWrites())
	}
}

// TestFSOwnership pins the flash's side of the zero-copy contract: Write
// and Append copy the caller's bytes, and Read hands out a copy that a
// later in-place rewrite cannot reach.
func TestFSOwnership(t *testing.T) {
	fs := NewFS()
	buf := []byte("abc")
	fs.Write("f", buf)
	fs.Append("g", buf)
	copy(buf, "xyz")
	if data, _ := fs.Read("f"); string(data) != "abc" {
		t.Errorf("Write retained the caller's buffer: %q", data)
	}
	if data, _ := fs.Read("g"); string(data) != "abc" {
		t.Errorf("Append retained the caller's buffer: %q", data)
	}
	read, _ := fs.Read("f")
	fs.Write("f", []byte("def"))
	if string(read) != "abc" {
		t.Errorf("in-place rewrite changed an earlier Read: %q", read)
	}
}

func TestFSCrashWithoutFaultsIsNoop(t *testing.T) {
	fs := NewFS()
	fs.Write("log", []byte("hello"))
	fs.Crash()
	if data, _ := fs.Read("log"); string(data) != "hello" {
		t.Errorf("perfect flash tore a write: %q", data)
	}
}

func TestFSQuotaRejectsWholeWrites(t *testing.T) {
	fs := NewFS()
	fs.EnableFaults(FlashFaults{QuotaBytes: 10}, sim.NewRand(1))
	if !fs.Write("a", []byte("12345")) {
		t.Fatal("write within quota rejected")
	}
	if fs.Append("a", []byte("67890x")) {
		t.Fatal("append past quota accepted")
	}
	if data, _ := fs.Read("a"); string(data) != "12345" {
		t.Errorf("rejected append left partial data: %q", data)
	}
	// Replacing a file accounts for the bytes it frees.
	if !fs.Write("a", []byte("0123456789")) {
		t.Error("replacement within quota rejected")
	}
	if fs.Write("b", []byte("x")) {
		t.Error("write past quota accepted")
	}
	if fs.QuotaRejects() != 2 {
		t.Errorf("QuotaRejects = %d, want 2", fs.QuotaRejects())
	}
	if !fs.CanWrite("a", []byte("shorter")) || fs.CanAppend("a", []byte("y")) {
		t.Error("quota arithmetic wrong")
	}
}

func TestFSBitRotFlipsExactlyOneBit(t *testing.T) {
	fs := NewFS()
	fs.EnableFaults(FlashFaults{BitRotPerWrite: 1}, sim.NewRand(7))
	orig := []byte("the quick brown fox jumps over the lazy dog")
	fs.Write("f", orig)
	got, _ := fs.Read("f")
	if len(got) != len(orig) {
		t.Fatalf("bit rot changed the length: %d != %d", len(got), len(orig))
	}
	diff := 0
	for i := range got {
		for b := 0; b < 8; b++ {
			if (got[i]^orig[i])>>b&1 == 1 {
				diff++
			}
		}
	}
	if diff != 1 {
		t.Errorf("bit rot flipped %d bits, want exactly 1", diff)
	}
	if fs.BitFlips() != 1 {
		t.Errorf("BitFlips = %d", fs.BitFlips())
	}
}

// TestFSFaultsDeterministic: identical seeds produce identical damage.
func TestFSFaultsDeterministic(t *testing.T) {
	run := func() []byte {
		fs := NewFS()
		fs.EnableFaults(FlashFaults{TornWriteProb: 0.7, BitRotPerWrite: 0.3}, sim.NewRand(42))
		for i := 0; i < 20; i++ {
			fs.Append("log", []byte("record payload with enough bytes to tear\n"))
			if i%5 == 4 {
				fs.Crash()
			}
		}
		data, _ := fs.Read("log")
		return data
	}
	if !bytes.Equal(run(), run()) {
		t.Error("identical seeds produced different flash damage")
	}
}

// TestDeviceWithoutAdversityHasPerfectFlash guards the compatibility
// contract: a zero FlashFaults config must not arm the fault model (and,
// by extension, never draws from the device RNG stream).
func TestDeviceWithoutAdversityHasPerfectFlash(t *testing.T) {
	eng := sim.NewEngine()
	d := NewDevice("plain", eng, DefaultConfig(1))
	d.FS().Write("f", []byte("data"))
	d.FS().Crash()
	if data, _ := d.FS().Read("f"); string(data) != "data" {
		t.Error("unarmed fault model damaged the flash")
	}
	if d.FS().TornWrites() != 0 || d.FS().BitFlips() != 0 || d.FS().QuotaRejects() != 0 {
		t.Error("unarmed fault model counted faults")
	}
}
