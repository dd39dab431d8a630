// Package core implements the paper's primary contribution: the failure
// data logger for Symbian OS smart phones (section 5). The logger is a
// daemon application started at phone boot, built from Active Objects:
//
//   - Heartbeat: periodically writes ALIVE records and, via the shutdown
//     notification, REBOOT/LOWBT/MAOFF records, enabling freeze and
//     self-shutdown detection (section 5.2). The simulated daemon owes
//     its ALIVE records and writes them, in order, just before anything
//     can observe the flash (DESIGN.md §19);
//   - Panic Detector: subscribes to the Kernel Server's RDebug panic
//     notifications and consolidates panic context into the Log File;
//   - Running Applications Detector: samples the Application Architecture
//     Server;
//   - Log Engine: collects phone activity (calls, messages) from the
//     Database Log Server;
//   - Power Manager: reads battery state from the System Agent Server to
//     tell low-battery shutdowns from failures.
//
// The logger observes the phone exclusively through the simulated OS
// services — it never peeks at simulator ground truth.
package core

import (
	"bytes"
	"encoding/json"
	"fmt"

	"symfail/internal/sim"
)

// Default on-flash paths for the logger's files (mirroring Figure 1).
const (
	DefaultLogPath      = "logs/logfile"
	DefaultBeatsPath    = "logs/beats"
	DefaultRunAppPath   = "logs/runapp"
	DefaultActivityPath = "logs/activity"
	DefaultPowerPath    = "logs/power"
)

// BeatKind is the heartbeat record type of section 5.2.
type BeatKind string

// Heartbeat record kinds.
const (
	BeatAlive  BeatKind = "ALIVE"  // normal execution
	BeatReboot BeatKind = "REBOOT" // orderly shutdown (self or user)
	BeatLowBat BeatKind = "LOWBT"  // shutdown due to low battery
	BeatMAOff  BeatKind = "MAOFF"  // user deliberately stopped the logger
)

// Beat is the single heartbeat record kept on flash. Only the most recent
// record matters to the boot-time detector, so the file holds exactly one.
type Beat struct {
	Kind BeatKind `json:"kind"`
	Time int64    `json:"time"` // sim.Time in nanoseconds
}

// Detection classifies what the boot-time detector concluded from the last
// heartbeat record (section 5.2).
type Detection string

// Boot-time detection outcomes.
const (
	// DetectedFreeze: the last record was ALIVE, so power was lost without
	// an orderly shutdown — the phone froze and the user pulled the
	// battery.
	DetectedFreeze Detection = "freeze"
	// DetectedShutdown: the last record was REBOOT — either a
	// self-shutdown or a user power cycle; the reboot-duration analysis
	// (Figure 2) separates the two.
	DetectedShutdown Detection = "shutdown"
	// DetectedLowBattery / DetectedLoggerOff: explained shutdowns.
	DetectedLowBattery Detection = "low-battery"
	DetectedLoggerOff  Detection = "logger-off"
	// DetectedFirstBoot: no heartbeat file yet.
	DetectedFirstBoot Detection = "first-boot"
)

// Record kinds in the consolidated Log File.
const (
	KindBoot  = "boot"
	KindPanic = "panic"
)

// Record is one entry of the consolidated Log File the Panic Detector
// maintains. Boot records carry the detection of what ended the previous
// session; panic records carry the panic with the phone context gathered
// from the other active objects.
type Record struct {
	Kind string `json:"kind"`
	Time int64  `json:"time"`

	// Boot records.
	Boot       int       `json:"boot,omitempty"`
	OSVersion  string    `json:"os,omitempty"`
	PrevBeat   BeatKind  `json:"prevBeat,omitempty"`
	PrevTime   int64     `json:"prevTime,omitempty"`
	OffSeconds float64   `json:"offSeconds,omitempty"`
	Detected   Detection `json:"detected,omitempty"`

	// Panic records.
	Category string   `json:"category,omitempty"`
	PType    int      `json:"ptype,omitempty"`
	Apps     []string `json:"apps,omitempty"`
	Activity string   `json:"activity,omitempty"`

	// Boot-time log recovery tally (set only when the previous session's
	// Log File was damaged — torn tail or bit rot — and had to be
	// repaired): how many records survived and how many corrupt regions
	// were excised.
	LogSalvaged int `json:"salvaged,omitempty"`
	LogLost     int `json:"lost,omitempty"`
}

// When returns the record timestamp as a sim.Time.
func (r Record) When() sim.Time { return sim.Time(r.Time) }

// PanicKey formats the panic identity the way the paper's tables do
// ("KERN-EXEC 3"). Empty for non-panic records.
func (r Record) PanicKey() string {
	if r.Kind != KindPanic {
		return ""
	}
	return fmt.Sprintf("%s %d", r.Category, r.PType)
}

// EncodeRecord serialises a record as one JSON line.
func EncodeRecord(r Record) []byte {
	return AppendRecordLine(make([]byte, 0, 96), r)
}

// ParseRecords parses a Log File. Framed logs (the on-flash format since
// crash-safe logging — first byte is FrameMagic) go through frame recovery
// so only checksum-verified records surface; legacy bare JSON lines are
// parsed line-wise with truncated or corrupt lines skipped — flash writes
// can be cut short by power loss, and a log analyser must survive that.
func ParseRecords(data []byte) []Record {
	var out []Record
	_ = ScanRecords(data, func(r Record) error {
		out = append(out, r)
		return nil
	})
	return out
}

// ScanRecords parses a Log File incrementally, calling fn once per record
// in log order without materialising the record slice — the streaming
// analysis path reads whole exported datasets this way with one device's
// log in memory at a time. It is ScanPayloads with every payload decoded by
// DecodeRecord. Skip semantics are identical to ParseRecords (which is
// built on it): corrupt frames, blank lines and payloads encoding/json
// rejects are dropped. An error from fn stops the scan and is returned.
func ScanRecords(data []byte, fn func(Record) error) error {
	return ScanPayloads(data, func(payload []byte) error {
		r, ok := DecodeRecord(payload)
		if !ok {
			return nil
		}
		return fn(r)
	})
}

// ScanPayloads walks a Log File's record payloads in log order without
// decoding them: for a framed log (first byte FrameMagic) the payload of
// every intact frame RecoverLog would salvage, for a legacy log every
// non-blank line. Callers that can tell a payload is already known by its
// bytes alone — the collection tier's merge index — skip the decode this
// way. The payloads alias data. An error from fn stops the scan and is
// returned.
func ScanPayloads(data []byte, fn func(payload []byte) error) error {
	if len(data) > 0 && data[0] == FrameMagic {
		var err error
		walkFrames(data, func(frame []byte) bool {
			err = fn(framePayload(frame))
			return err == nil
		})
		return err
	}
	for len(data) > 0 {
		line := data
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			line, data = data[:i], data[i+1:]
		} else {
			data = nil
		}
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		if err := fn(line); err != nil {
			return err
		}
	}
	return nil
}

// EncodeBeat serialises the heartbeat record.
func EncodeBeat(b Beat) []byte {
	return AppendBeat(make([]byte, 0, 48), b)
}

// ParseBeat parses the heartbeat file and returns the most recent valid
// beat. ok is false when the file is absent or corrupt (treated as a first
// boot). Framed files (the crash-safe append-only format) are scanned with
// frame recovery and the last intact beat wins — a torn append therefore
// falls back to the previous beat instead of destroying the detector's
// evidence; legacy single-JSON files parse directly.
func ParseBeat(data []byte) (Beat, bool) {
	if len(data) > 0 && data[0] == FrameMagic {
		// The newest intact beat almost always parses, so try it before
		// collecting every payload for the backwards search.
		var last []byte
		_ = ScanPayloads(data, func(payload []byte) error {
			last = payload
			return nil
		})
		if last == nil {
			return Beat{}, false
		}
		if b, ok := parseBeatPayload(last); ok {
			return b, true
		}
		var payloads [][]byte
		_ = ScanPayloads(data, func(payload []byte) error {
			payloads = append(payloads, payload)
			return nil
		})
		for i := len(payloads) - 1; i >= 0; i-- {
			if b, ok := parseBeatPayload(payloads[i]); ok {
				return b, true
			}
		}
		return Beat{}, false
	}
	return parseBeatPayload(data)
}

func parseBeatPayload(data []byte) (Beat, bool) {
	var b Beat
	if err := json.Unmarshal(data, &b); err != nil {
		return Beat{}, false
	}
	switch b.Kind {
	case BeatAlive, BeatReboot, BeatLowBat, BeatMAOff:
		return b, true
	default:
		return Beat{}, false
	}
}
