package core

import "hash/crc32"

// Crash-safe record framing. The consolidated Log File lives on flash that
// can lose power mid-write: an append interrupted by a battery pull persists
// only a prefix, and worn cells flip bits at rest. The logger therefore
// writes every record inside a self-checking frame and recovers the file at
// boot from nothing but the on-flash bytes — exactly what a real logger
// could see.
//
// Frame layout (ASCII, so a torn flash dump stays human-inspectable):
//
//	'~' <crc32c(payload) 8 hex> ':' <len(payload) 6 hex> ':' <payload> '\n'
//
// The CRC-32C is over the payload only; the header is implicitly protected
// because any damage to it makes the checksum or length check fail. A torn
// tail is a frame whose length field promises more bytes than the file
// holds; bit rot is a checksum mismatch. Both are detected, skipped, and
// counted — never surfaced as records.

// FrameMagic is the first byte of every frame. Legacy logs (bare JSON
// lines) start with '{', so the first byte of a file tells the two formats
// apart.
const FrameMagic = '~'

// frameHeaderLen is '~' + 8 hex CRC + ':' + 6 hex length + ':'.
const frameHeaderLen = 1 + 8 + 1 + 6 + 1

// MaxFramePayload bounds a single frame payload (6 hex digits of length).
const MaxFramePayload = 1<<24 - 1

// frameTable is the CRC-32C (Castagnoli) table shared by framing and the
// upload protocol.
var frameTable = crc32.MakeTable(crc32.Castagnoli)

// EncodeFrame wraps payload in a checksummed frame.
func EncodeFrame(payload []byte) []byte {
	return AppendFrame(make([]byte, 0, frameHeaderLen+len(payload)+1), payload)
}

// FrameRecord serialises a record as one checksummed frame (the on-flash
// form the Log Engine appends).
func FrameRecord(r Record) []byte {
	return EncodeFrame(AppendRecord(nil, r))
}

// decodeFrame tries to decode one frame at the start of data. It returns
// the payload, the total encoded size, and whether the frame is intact.
func decodeFrame(data []byte) (payload []byte, size int, ok bool) {
	if len(data) < frameHeaderLen+1 || data[0] != FrameMagic || data[9] != ':' || data[16] != ':' {
		return nil, 0, false
	}
	var sum uint32
	var n int
	if !parseHex32(data[1:9], &sum) || !parseHex24(data[10:16], &n) {
		return nil, 0, false
	}
	size = frameHeaderLen + n + 1
	if len(data) < size || data[size-1] != '\n' {
		return nil, 0, false // torn tail: the write stopped before the payload landed
	}
	payload = data[frameHeaderLen : frameHeaderLen+n]
	if crc32.Checksum(payload, frameTable) != sum {
		return nil, 0, false // bit rot or a corrupted length field
	}
	return payload, size, true
}

// parseHex32 / parseHex24 parse fixed-width lowercase hex without
// allocating (the recovery scan runs these on every candidate byte).
func parseHex32(b []byte, out *uint32) bool {
	var v uint32
	for _, c := range b {
		d, ok := hexDigit(c)
		if !ok {
			return false
		}
		v = v<<4 | uint32(d)
	}
	*out = v
	return true
}

func parseHex24(b []byte, out *int) bool {
	var v int
	for _, c := range b {
		d, ok := hexDigit(c)
		if !ok {
			return false
		}
		v = v<<4 | int(d)
	}
	*out = v
	return true
}

func hexDigit(c byte) (byte, bool) {
	switch {
	case c >= '0' && c <= '9':
		return c - '0', true
	case c >= 'a' && c <= 'f':
		return c - 'a' + 10, true
	default:
		return 0, false
	}
}

// Recovery is the outcome of scanning a framed log: the records that
// survived, the clean re-encoding to truncate the file to, and the damage
// tally for the boot record.
type Recovery struct {
	// Payloads holds the payload bytes of every intact frame, in order.
	Payloads [][]byte
	// Clean is the concatenation of the intact frames — writing it back
	// truncates torn tails and excises corrupt regions.
	Clean []byte
	// Salvaged counts intact frames; Lost counts contiguous corrupt
	// regions skipped (each region is at least one destroyed record).
	Salvaged, Lost int
	// Dirty reports whether Clean differs from the scanned bytes (the
	// file needs rewriting).
	Dirty bool
}

// walkFrames is the one frame scan every reader of a framed log shares. It
// calls fn with each intact frame (header through trailing newline), in
// order, and returns how many contiguous corrupt regions it skipped. A
// frame is accepted only when its length lands inside the data and its
// CRC-32C matches; everything else is skipped a byte at a time. fn
// returning false stops the walk, and the count then covers only the bytes
// walked. The frames alias data; nothing is copied.
func walkFrames(data []byte, fn func(frame []byte) bool) (lost int) {
	i := 0
	inGarbage := false
	for i < len(data) {
		if data[i] == FrameMagic {
			if _, size, ok := decodeFrame(data[i:]); ok {
				if !fn(data[i : i+size]) {
					return lost
				}
				i += size
				inGarbage = false
				continue
			}
		}
		if !inGarbage {
			lost++
			inGarbage = true
		}
		i++
	}
	return lost
}

// framePayload returns the payload of a frame walkFrames accepted.
func framePayload(frame []byte) []byte {
	return frame[frameHeaderLen : len(frame)-1]
}

// RecoverLog scans a framed log byte range and salvages every intact
// frame. It never panics and never invents a record: it keeps exactly the
// frames walkFrames accepts. Recovery is idempotent — RecoverLog(rec.Clean)
// salvages the same frames and reports no damage. Readers that only need
// the payloads use ScanPayloads, which walks the same frames without
// building Clean.
func RecoverLog(data []byte) Recovery {
	var rec Recovery
	rec.Lost = walkFrames(data, func(frame []byte) bool {
		rec.Payloads = append(rec.Payloads, framePayload(frame))
		rec.Clean = append(rec.Clean, frame...)
		rec.Salvaged++
		return true
	})
	rec.Dirty = rec.Lost > 0 || len(rec.Clean) != len(data)
	return rec
}

// rotateFramed drops the oldest frames so at most keep bytes remain,
// cutting at frame boundaries so the survivors still verify.
func rotateFramed(data []byte, keep int) []byte {
	if len(data) <= keep {
		return data
	}
	rec := RecoverLog(data)
	clean := rec.Clean
	for len(clean) > keep {
		_, size, ok := decodeFrame(clean)
		if !ok {
			break // unreachable: Clean is made of intact frames
		}
		clean = clean[size:]
	}
	return append([]byte(nil), clean...)
}
