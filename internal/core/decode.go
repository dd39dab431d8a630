package core

import (
	"encoding/json"
	"strconv"
	"strings"
)

// DecodeRecord decodes one record payload (a frame's payload or a legacy
// log line) — the inverse of AppendRecord. The canonical form AppendRecord
// writes is decoded directly:
//
//   - the keys appear in AppendRecord's fixed order, each at most once,
//     with "kind" and "time" always present;
//   - there is no whitespace anywhere;
//   - every string is plain ASCII (0x20–0x7f) with no escape sequence;
//   - numbers follow the JSON grammar ("apps" holds at least one string).
//
// Any other input goes to encoding/json.Unmarshal, which stays the
// specification for non-canonical bytes: ok is false exactly when
// Unmarshal rejects the payload, and an accepted payload yields the record
// Unmarshal would (a differential fuzzer pins this). The canonical path
// allocates one string for the whole payload — every string field is a
// substring of it — plus the Apps slice.
func DecodeRecord(payload []byte) (Record, bool) {
	if r, ok := decodeCanonical(payload); ok {
		return r, true
	}
	var r Record
	if err := json.Unmarshal(payload, &r); err != nil {
		return Record{}, false
	}
	return r, true
}

// decodeCanonical decodes payload when it is in canonical form and reports
// false otherwise (the caller then falls back to encoding/json).
func decodeCanonical(payload []byte) (Record, bool) {
	if len(payload) < len(`{"kind":"","time":0}`) || payload[0] != '{' || payload[len(payload)-1] != '}' {
		return Record{}, false
	}
	d := canonReader{s: string(payload)}
	var r Record
	var ok bool
	if !d.lit(`{"kind":`) {
		return Record{}, false
	}
	if r.Kind, ok = d.str(); !ok || !d.lit(`,"time":`) {
		return Record{}, false
	}
	if r.Time, ok = d.int(64); !ok {
		return Record{}, false
	}
	if d.lit(`,"boot":`) && !d.intField(&r.Boot) {
		return Record{}, false
	}
	if d.lit(`,"os":`) && !d.strField(&r.OSVersion) {
		return Record{}, false
	}
	if d.lit(`,"prevBeat":`) {
		s, ok := d.str()
		if !ok {
			return Record{}, false
		}
		r.PrevBeat = BeatKind(s)
	}
	if d.lit(`,"prevTime":`) {
		if r.PrevTime, ok = d.int(64); !ok {
			return Record{}, false
		}
	}
	if d.lit(`,"offSeconds":`) {
		if r.OffSeconds, ok = d.float(); !ok {
			return Record{}, false
		}
	}
	if d.lit(`,"detected":`) {
		s, ok := d.str()
		if !ok {
			return Record{}, false
		}
		r.Detected = Detection(s)
	}
	if d.lit(`,"category":`) && !d.strField(&r.Category) {
		return Record{}, false
	}
	if d.lit(`,"ptype":`) && !d.intField(&r.PType) {
		return Record{}, false
	}
	if d.lit(`,"apps":[`) {
		var buf [8]string
		apps := buf[:0]
		for {
			s, ok := d.str()
			if !ok {
				return Record{}, false
			}
			apps = append(apps, s)
			if d.lit(`]`) {
				break
			}
			if !d.lit(`,`) {
				return Record{}, false
			}
		}
		r.Apps = append([]string(nil), apps...)
	}
	if d.lit(`,"activity":`) && !d.strField(&r.Activity) {
		return Record{}, false
	}
	if d.lit(`,"salvaged":`) && !d.intField(&r.LogSalvaged) {
		return Record{}, false
	}
	if d.lit(`,"lost":`) && !d.intField(&r.LogLost) {
		return Record{}, false
	}
	if !d.lit(`}`) || d.i != len(d.s) {
		return Record{}, false
	}
	return r, true
}

// canonReader walks a canonical record payload. Every method advances past
// what it matched and leaves the position alone on a mismatch.
type canonReader struct {
	s string
	i int
}

// lit consumes the literal l if the input continues with it.
func (d *canonReader) lit(l string) bool {
	if !strings.HasPrefix(d.s[d.i:], l) {
		return false
	}
	d.i += len(l)
	return true
}

// str consumes a plain-ASCII string literal with no escapes and returns its
// contents as a substring of the input.
func (d *canonReader) str() (string, bool) {
	if d.i >= len(d.s) || d.s[d.i] != '"' {
		return "", false
	}
	for j := d.i + 1; j < len(d.s); j++ {
		switch c := d.s[j]; {
		case c == '"':
			s := d.s[d.i+1 : j]
			d.i = j + 1
			return s, true
		case c < 0x20 || c > 0x7f || c == '\\':
			return "", false
		}
	}
	return "", false
}

func (d *canonReader) strField(dst *string) bool {
	s, ok := d.str()
	*dst = s
	return ok
}

// digits returns the end of the run of decimal digits starting at j.
func (d *canonReader) digits(j int) int {
	for j < len(d.s) && d.s[j] >= '0' && d.s[j] <= '9' {
		j++
	}
	return j
}

// intToken returns the end of a JSON integer (-?(0|[1-9][0-9]*)) starting
// at the current position, or -1.
func (d *canonReader) intToken() int {
	j := d.i
	if j < len(d.s) && d.s[j] == '-' {
		j++
	}
	switch {
	case j < len(d.s) && d.s[j] == '0':
		return j + 1
	case j < len(d.s) && d.s[j] >= '1' && d.s[j] <= '9':
		return d.digits(j + 1)
	}
	return -1
}

// int consumes a JSON integer that fits in bits signed bits. A fraction or
// exponent is left unconsumed, so the literal that must follow fails to
// match and the payload goes to encoding/json (which rejects it for an
// integer field).
func (d *canonReader) int(bits int) (int64, bool) {
	end := d.intToken()
	if end < 0 {
		return 0, false
	}
	v, err := strconv.ParseInt(d.s[d.i:end], 10, bits)
	if err != nil {
		return 0, false
	}
	d.i = end
	return v, true
}

func (d *canonReader) intField(dst *int) bool {
	v, ok := d.int(strconv.IntSize)
	*dst = int(v)
	return ok
}

// float consumes a JSON number and parses it as encoding/json does.
func (d *canonReader) float() (float64, bool) {
	end := d.intToken()
	if end < 0 {
		return 0, false
	}
	if end < len(d.s) && d.s[end] == '.' {
		if next := d.digits(end + 1); next > end+1 {
			end = next
		} else {
			return 0, false
		}
	}
	if end < len(d.s) && (d.s[end] == 'e' || d.s[end] == 'E') {
		j := end + 1
		if j < len(d.s) && (d.s[j] == '+' || d.s[j] == '-') {
			j++
		}
		next := d.digits(j)
		if next == j {
			return 0, false
		}
		end = next
	}
	v, err := strconv.ParseFloat(d.s[d.i:end], 64)
	if err != nil {
		return 0, false
	}
	d.i = end
	return v, true
}
