package core

import (
	"bytes"
	"encoding/json"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"symfail/internal/sim"
)

// unmarshalStdlib is the reference decoding DecodeRecord must reproduce.
func unmarshalStdlib(payload []byte) (Record, bool) {
	var r Record
	if err := json.Unmarshal(payload, &r); err != nil {
		return Record{}, false
	}
	return r, true
}

// checkDecodeMatchesStdlib fails t when DecodeRecord and json.Unmarshal
// disagree on payload: either about accepting it or about the record.
// Whenever the canonical path alone accepts the payload, Unmarshal must
// accept it too and yield a DeepEqual record.
func checkDecodeMatchesStdlib(t *testing.T, payload []byte) {
	t.Helper()
	want, wantOK := unmarshalStdlib(payload)
	if r, ok := decodeCanonical(payload); ok {
		if !wantOK {
			t.Fatalf("canonical path accepted %q, encoding/json rejects it", payload)
		}
		if !reflect.DeepEqual(r, want) {
			t.Fatalf("canonical path decoded %q as\n %#v\nencoding/json gives\n %#v", payload, r, want)
		}
	}
	got, ok := DecodeRecord(payload)
	if ok != wantOK || !reflect.DeepEqual(got, want) {
		t.Fatalf("DecodeRecord(%q) = %#v, %v\nencoding/json gives %#v, %v", payload, got, ok, want, wantOK)
	}
}

// decodeSeeds are the payloads both decoder tests start from: every
// appendCases record in canonical form, plus non-canonical spellings the
// fallback must handle exactly as encoding/json does.
func decodeSeeds() [][]byte {
	names := make([]string, 0, len(appendCases))
	for name := range appendCases {
		names = append(names, name)
	}
	sort.Strings(names)
	var seeds [][]byte
	for _, name := range names {
		seeds = append(seeds, AppendRecord(nil, appendCases[name]))
	}
	for _, s := range []string{
		`{"kind":"boot","time":1}`,
		`{"kind":"panic","time":2,"category":"USER","ptype":11,"apps":["a","b"],"activity":"idle"}`,
		` {"kind":"boot","time":1}`,                   // whitespace
		`{"kind":"boot","time":1}` + "\r",             // CRLF line
		`{"kind":"x","time":1,"os":"\ud83d\ude00"}`,   // surrogate-pair escape
		`{"time":1,"kind":"boot"}`,                    // key order
		`{"kind":"boot","time":1,"kind":"panic"}`,     // duplicate key
		`{"kind":"boot","time":1,"extra":true}`,       // unknown key
		`{"KIND":"boot","time":1}`,                    // case-folded key
		`{"kind":null,"time":1}`,                      // null
		`{"kind":"a\u003cb","time":1}`,                // escaped string
		`{"kind":"boot","time":1,"apps":[]}`,          // empty apps
		`{"kind":"boot","time":1.5}`,                  // fraction into an int
		`{"kind":"boot","time":1e3}`,                  // exponent into an int
		`{"kind":"boot","time":-0}`,                   // negative zero
		`{"kind":"boot","time":01}`,                   // leading zero
		`{"kind":"boot","time":99999999999999999999}`, // int64 overflow
		`{"kind":"boot","time":1,"boot":0}`,           // explicit zero
		`{"kind":"boot","time":1,"offSeconds":1E+2}`,  // upper-case exponent
		`{"kind":"boot","time":1,"offSeconds":1e400}`, // float overflow
		`{"kind":"boot","time":1,"offSeconds":1.}`,    // bad fraction
		`{"kind":"boot","time":1,"offSeconds":-}`,     // bad number
		`{"kind":"boot","time":1}}`,                   // trailing byte
		`{"kind":"boot","time":1`,                     // torn
		`{"kind":"b` + "\x7f" + `","time":1}`,         // DEL is plain ASCII
		`{"kind":"b` + "\x1f" + `","time":1}`,         // control byte
		"{\"kind\":\"\xff\",\"time\":1}",              // invalid UTF-8
		`not json`,
		``,
	} {
		seeds = append(seeds, []byte(s))
	}
	return seeds
}

func TestDecodeRecordMatchesStdlib(t *testing.T) {
	for _, payload := range decodeSeeds() {
		checkDecodeMatchesStdlib(t, payload)
	}
}

// TestDecodeRecordCanonicalPath pins that AppendRecord's own output takes
// the direct path whenever its strings are plain ASCII — the fallback is
// for foreign bytes, not for the logger's records.
func TestDecodeRecordCanonicalPath(t *testing.T) {
	for _, name := range []string{"minimal", "boot-full", "panic", "negative-time", "one-empty-app", "float-tiny", "float-huge", "float-neg"} {
		payload := AppendRecord(nil, appendCases[name])
		if _, ok := decodeCanonical(payload); !ok {
			t.Errorf("%s: canonical payload %s fell back to encoding/json", name, payload)
		}
	}
}

// canonicalRoundTrip reports whether AppendRecord(DecodeRecord(c)) == c for
// c = AppendRecord(r): the invariant the collection tier's raw-payload skip
// relies on.
func canonicalRoundTrip(r Record) bool {
	c := AppendRecord(nil, r)
	back, ok := DecodeRecord(c)
	return ok && bytes.Equal(AppendRecord(nil, back), c)
}

// TestDecodeRecordRoundTrip checks the round trip over every record a
// decoder can produce. Decoding replaces invalid UTF-8 with U+FFFD, so a
// record holding invalid UTF-8 re-encodes differently once; every record
// that came out of a decoder — which is every record the collection tier
// indexes — is a fixed point.
func TestDecodeRecordRoundTrip(t *testing.T) {
	for name, rec := range appendCases {
		decoded, ok := DecodeRecord(AppendRecord(nil, rec))
		if !ok {
			t.Fatalf("%s: AppendRecord output does not decode", name)
		}
		if !canonicalRoundTrip(decoded) {
			t.Errorf("%s: decoded record %#v does not round-trip", name, decoded)
		}
		if name != "invalid-utf8" && !canonicalRoundTrip(rec) {
			t.Errorf("%s: record does not round-trip", name)
		}
	}
	f := func(seed uint64) bool {
		r := sim.NewRand(seed)
		for i := 0; i < 20; i++ {
			decoded, ok := DecodeRecord(AppendRecord(nil, randomRecord(r)))
			if !ok || !canonicalRoundTrip(decoded) {
				t.Logf("round trip failed for %#v", decoded)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// FuzzDecodeRecord is the differential fuzzer: on any bytes DecodeRecord
// agrees with encoding/json about acceptance and about the record, and an
// accepted record round-trips through AppendRecord.
func FuzzDecodeRecord(f *testing.F) {
	for _, s := range decodeSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		checkDecodeMatchesStdlib(t, payload)
		if r, ok := DecodeRecord(payload); ok && !canonicalRoundTrip(r) {
			t.Fatalf("decoded record %#v does not round-trip", r)
		}
	})
}

func TestScanPayloadsMatchesRecoverLog(t *testing.T) {
	var log []byte
	for i := 0; i < 5; i++ {
		log = append(log, FrameRecord(Record{Kind: KindBoot, Time: int64(i), Boot: i + 1})...)
	}
	damaged := append([]byte(nil), log...)
	damaged[frameHeaderLen+3] ^= 0x20              // bit rot in the first payload
	damaged = append(damaged, log[:len(log)/7]...) // torn tail
	for _, data := range [][]byte{log, damaged} {
		var got [][]byte
		if err := ScanPayloads(data, func(p []byte) error {
			got = append(got, p)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		want := RecoverLog(data).Payloads
		if len(got) != len(want) {
			t.Fatalf("ScanPayloads found %d payloads, RecoverLog %d", len(got), len(want))
		}
		for i := range got {
			if !bytes.Equal(got[i], want[i]) {
				t.Errorf("payload %d: %q vs %q", i, got[i], want[i])
			}
		}
	}
	lines := []byte("{\"kind\":\"boot\",\"time\":1}\n\n  \n{\"kind\":\"boot\",\"time\":2}\r\n")
	var n int
	_ = ScanPayloads(lines, func([]byte) error { n++; return nil })
	if n != 2 {
		t.Errorf("legacy log: %d payloads, want 2 (blank lines skipped)", n)
	}
}
