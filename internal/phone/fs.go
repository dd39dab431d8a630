package phone

import (
	"fmt"
	"sort"

	"symfail/internal/sim"
)

// FlashFaults calibrates the adversity model of the flash medium. The zero
// value is a perfect flash (the pre-adversity behaviour, bit for bit). All
// randomness comes from a Split() child of the device RNG, so fault
// injection is a pure function of the seed.
type FlashFaults struct {
	// TornWriteProb is the chance that the write in flight when power is
	// lost abruptly (a frozen phone's battery pull) persists only a
	// prefix. Orderly shutdowns flush and never tear.
	TornWriteProb float64
	// BitRotPerWrite is the per-write-operation chance that one stored
	// bit of the file being written flips at rest (worn NAND cells).
	BitRotPerWrite float64
	// QuotaBytes caps total flash occupancy; writes that would exceed it
	// are rejected (the file server reports KErrDiskFull). Zero means
	// unlimited.
	QuotaBytes int
}

// Enabled reports whether any fault mode is active.
func (c FlashFaults) Enabled() bool {
	return c.TornWriteProb > 0 || c.BitRotPerWrite > 0 || c.QuotaBytes > 0
}

// FS is the phone's flash filesystem. It persists across reboots, freezes
// and battery pulls — which is precisely why the paper's logger can infer a
// freeze at the next boot: the last heartbeat record survives on flash.
//
// With EnableFaults it also misbehaves the way study-era flash did: an
// abrupt power loss can tear the most recent write down to a prefix, worn
// cells flip bits, and the medium fills up.
type FS struct {
	files  map[string][]byte
	writes uint64

	faults FlashFaults
	rng    *sim.Rand

	// The most recent write is the one "in flight" when power vanishes:
	// a later write implicitly syncs it.
	lastPath string
	lastOff  int // file length before the last write landed
	lastN    int // bytes the last write added past lastOff

	tornWrites   uint64
	bitFlips     uint64
	quotaRejects uint64

	// owner brings the flash up to date with writes its owner still owes
	// (the logger's deferred heartbeats). Every operation runs it first,
	// so nothing reads, writes, counts or tears the flash before those
	// writes land, and they land in the order they fell due. settling
	// keeps the owner's own writes from running it again.
	owner    func()
	settling bool
}

// NewFS returns an empty, perfect filesystem.
func NewFS() *FS {
	return &FS{files: make(map[string][]byte)}
}

// EnableFaults arms the adversity model. rng must be a Split() child of
// the device RNG (the call order of Split is part of the deterministic
// contract); cfg's zero value disarms faults again.
func (f *FS) EnableFaults(cfg FlashFaults, rng *sim.Rand) {
	f.faults = cfg
	f.rng = rng
}

// SetOwner installs settle as the hook every operation runs first (nil
// removes it). There is one owner at a time: the logger daemon of the
// current boot. settle may write through the FS; those writes do not run
// it again.
func (f *FS) SetOwner(settle func()) { f.owner = settle }

// settle runs the owner's hook unless it is already running.
func (f *FS) settle() {
	if f.owner == nil || f.settling {
		return
	}
	f.settling = true
	f.owner()
	f.settling = false
}

// Write replaces the contents of path, rewriting the file's existing
// backing array in place, so a periodic rewrite of a same-sized file
// allocates nothing. data is copied, never retained. It reports false when
// the flash quota would be exceeded (the write is rejected whole, like a
// full medium).
func (f *FS) Write(path string, data []byte) bool {
	f.settle()
	if !f.canWrite(path, data) {
		f.quotaRejects++
		return false
	}
	f.files[path] = append(f.files[path][:0], data...)
	f.writes++
	f.noteWrite(path, 0, len(data))
	return true
}

// Append adds data to the end of path, creating it if needed; data is
// copied, never retained. It reports false when the flash quota would be
// exceeded.
func (f *FS) Append(path string, data []byte) bool {
	f.settle()
	if !f.canAppend(path, data) {
		f.quotaRejects++
		return false
	}
	off := len(f.files[path])
	f.files[path] = append(f.files[path], data...)
	f.writes++
	f.noteWrite(path, off, len(data))
	return true
}

// CanWrite reports whether replacing path with data fits the quota.
func (f *FS) CanWrite(path string, data []byte) bool {
	f.settle()
	return f.canWrite(path, data)
}

func (f *FS) canWrite(path string, data []byte) bool {
	return f.faults.QuotaBytes <= 0 ||
		f.totalSize()-len(f.files[path])+len(data) <= f.faults.QuotaBytes
}

// CanAppend reports whether appending data to path fits the quota.
func (f *FS) CanAppend(path string, data []byte) bool {
	f.settle()
	return f.canAppend(path, data)
}

func (f *FS) canAppend(path string, data []byte) bool {
	return f.faults.QuotaBytes <= 0 || f.totalSize()+len(data) <= f.faults.QuotaBytes
}

// noteWrite tracks the in-flight write and applies bit rot to the file
// just written.
func (f *FS) noteWrite(path string, off, n int) {
	f.lastPath, f.lastOff, f.lastN = path, off, n
	if f.faults.BitRotPerWrite <= 0 || f.rng == nil {
		return
	}
	if file := f.files[path]; len(file) > 0 && f.rng.Bool(f.faults.BitRotPerWrite) {
		bit := f.rng.Intn(len(file) * 8)
		file[bit/8] ^= 1 << (bit % 8)
		f.bitFlips++
	}
}

// Crash models an abrupt power loss (battery pulled from a frozen phone):
// with TornWriteProb the most recent write persists only a prefix of what
// it wrote. Orderly shutdowns must not call this — Symbian flushes file
// buffers on the way down.
func (f *FS) Crash() {
	f.settle()
	if f.rng == nil || f.lastN == 0 || !f.rng.Bool(f.faults.TornWriteProb) {
		return
	}
	file, ok := f.files[f.lastPath]
	if !ok || len(file) < f.lastOff+f.lastN {
		return // the file shrank since (rewrite/delete); nothing in flight
	}
	keep := f.rng.Intn(f.lastN) // strictly less than lastN: a true tear
	f.files[f.lastPath] = file[:f.lastOff+keep]
	f.tornWrites++
	f.lastN = 0
}

// TornWrites, BitFlips and QuotaRejects count injected flash faults
// (ground truth for experiments; the logger never reads these).
func (f *FS) TornWrites() uint64 {
	f.settle()
	return f.tornWrites
}

// BitFlips counts injected bit-rot events.
func (f *FS) BitFlips() uint64 {
	f.settle()
	return f.bitFlips
}

// QuotaRejects counts writes rejected by the flash-full quota.
func (f *FS) QuotaRejects() uint64 {
	f.settle()
	return f.quotaRejects
}

// Read returns the contents of path and whether it exists. The returned
// slice is a copy the caller owns: it cannot corrupt the stored file, and
// a later in-place Write cannot change it.
func (f *FS) Read(path string) ([]byte, bool) {
	f.settle()
	data, ok := f.files[path]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), data...), true
}

// Delete removes path (missing paths are fine).
func (f *FS) Delete(path string) {
	f.settle()
	delete(f.files, path)
}

// Exists reports whether path is present.
func (f *FS) Exists(path string) bool {
	f.settle()
	_, ok := f.files[path]
	return ok
}

// Size returns the length of path in bytes (0 when missing).
func (f *FS) Size(path string) int {
	f.settle()
	return len(f.files[path])
}

// TotalSize returns the number of bytes stored across all files.
func (f *FS) TotalSize() int {
	f.settle()
	return f.totalSize()
}

func (f *FS) totalSize() int {
	total := 0
	for _, d := range f.files {
		total += len(d)
	}
	return total
}

// Writes returns the cumulative number of write operations (flash wear).
func (f *FS) Writes() uint64 {
	f.settle()
	return f.writes
}

// List returns all paths in lexical order.
func (f *FS) List() []string {
	f.settle()
	out := make([]string, 0, len(f.files))
	for p := range f.files {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// MasterReset wipes the filesystem — the "all settings are reset to the
// factory settings and the user's content is removed" recovery action the
// forum study describes for service-centre visits.
func (f *FS) MasterReset() {
	f.settle()
	f.files = make(map[string][]byte)
}

// String summarises the filesystem for diagnostics.
func (f *FS) String() string {
	f.settle()
	return fmt.Sprintf("fs{files=%d bytes=%d writes=%d}", len(f.files), f.totalSize(), f.writes)
}
