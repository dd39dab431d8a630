package core

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"testing/quick"

	"symfail/internal/sim"
)

// marshalRecordStdlib is the reference encoding the flattened encoder must
// reproduce byte for byte.
func marshalRecordStdlib(t testing.TB, r Record) []byte {
	t.Helper()
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatalf("json.Marshal: %v", err)
	}
	return data
}

// appendCases cover the whole encoding surface: HTML-escaped strings,
// U+2028/U+2029, invalid UTF-8, e-format floats, negative times and apps.
// The decoder tests seed from them too.
var appendCases = map[string]Record{
	"minimal": {Kind: KindBoot, Time: 0},
	"boot-full": {
		Kind: KindBoot, Time: 123456789, Boot: 7, OSVersion: "7.0s",
		PrevBeat: BeatAlive, PrevTime: 99, OffSeconds: 42.5,
		Detected: DetectedFreeze, LogSalvaged: 3, LogLost: 1,
	},
	"panic": {
		Kind: KindPanic, Time: 1, Category: "KERN-EXEC", PType: 3,
		Apps: []string{"phone", "camera"}, Activity: "voice-call",
	},
	"negative-time":    {Kind: KindBoot, Time: -5, Boot: -2, PType: -7},
	"empty-apps-slice": {Kind: KindPanic, Time: 1, Apps: []string{}},
	"one-empty-app":    {Kind: KindPanic, Time: 1, Apps: []string{""}},
	"escaping": {
		Kind: `we"ird\kind`, Time: 2, OSVersion: "a<b>&c",
		Activity: "tab\there\nnewline\rret\x00nul\x1fctl\bbsp\ffeed",
	},
	"unicode": {
		Kind: "héllo", Time: 3, Activity: "line\u2028sep\u2029para",
		OSVersion: "snow\u00e9\u4e16\u754c",
	},
	"invalid-utf8":  {Kind: string([]byte{'a', 0xff, 'b'}), Time: 4, Activity: string([]byte{0xc3, 0x28})},
	"float-frac":    {Kind: KindBoot, Time: 5, OffSeconds: 0.30000000000000004},
	"float-tiny":    {Kind: KindBoot, Time: 6, OffSeconds: 1e-9},
	"float-huge":    {Kind: KindBoot, Time: 7, OffSeconds: 3.5e21},
	"float-edge-lo": {Kind: KindBoot, Time: 8, OffSeconds: 1e-6},
	"float-edge-hi": {Kind: KindBoot, Time: 9, OffSeconds: 1e21},
	"float-neg":     {Kind: KindBoot, Time: 10, OffSeconds: -123.456},
	"neg-zero-off":  {Kind: KindBoot, Time: 11, OffSeconds: math.Copysign(0, -1)},
}

func TestAppendRecordMatchesStdlib(t *testing.T) {
	for name, rec := range appendCases {
		rec := rec
		t.Run(name, func(t *testing.T) {
			want := marshalRecordStdlib(t, rec)
			got := AppendRecord(nil, rec)
			if !bytes.Equal(got, want) {
				t.Errorf("AppendRecord mismatch:\n got %s\nwant %s", got, want)
			}
			if line := AppendRecordLine(nil, rec); !bytes.Equal(line, append(want, '\n')) {
				t.Errorf("AppendRecordLine mismatch: %q", line)
			}
			// Appending into a dirty prefix must not disturb the bytes.
			prefix := []byte("prefix!")
			if got := AppendRecord(prefix, rec); !bytes.Equal(got, append([]byte("prefix!"), want...)) {
				t.Errorf("AppendRecord with prefix mismatch: %s", got)
			}
		})
	}
}

func TestAppendBeatMatchesStdlib(t *testing.T) {
	for _, b := range []Beat{
		{Kind: BeatAlive, Time: 0},
		{Kind: BeatReboot, Time: 1234567890123},
		{Kind: "<odd&kind>", Time: -1},
		{Kind: "", Time: 42}, // no omitempty on Beat: kind stays
	} {
		want, err := json.Marshal(b)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendBeat(nil, b); !bytes.Equal(got, want) {
			t.Errorf("AppendBeat(%+v):\n got %s\nwant %s", b, got, want)
		}
	}
}

func TestAppendFrameMatchesEncodeFrame(t *testing.T) {
	payloads := [][]byte{
		nil,
		{},
		[]byte("x"),
		[]byte(`{"kind":"boot","time":1}`),
		bytes.Repeat([]byte{0xab}, 4096),
	}
	for _, p := range payloads {
		want := EncodeFrame(p)
		got := AppendFrame(nil, p)
		if !bytes.Equal(got, want) {
			t.Errorf("AppendFrame(%d bytes):\n got %q\nwant %q", len(p), got, want)
		}
		// Round-trip through the decoder.
		payload, size, ok := decodeFrame(got)
		if !ok || size != len(got) || !bytes.Equal(payload, p) {
			t.Errorf("decodeFrame round-trip failed for %d-byte payload", len(p))
		}
	}
}

// randomRecord draws a record whose fields cover the full encoding surface,
// including hostile strings and extreme floats (but finite: json.Marshal
// rejects NaN/Inf and the flattened encoder panics on them by contract).
func randomRecord(r *sim.Rand) Record {
	str := func() string {
		n := r.Intn(12)
		b := make([]byte, n)
		for i := range b {
			// Bias into the troublesome ranges: controls, HTML chars,
			// high bytes (often invalid UTF-8 when split).
			switch r.Intn(4) {
			case 0:
				b[i] = byte(r.Intn(0x20))
			case 1:
				b[i] = "\"\\<>&/'"[r.Intn(7)]
			case 2:
				b[i] = byte(0x80 + r.Intn(0x80))
			default:
				b[i] = byte(0x20 + r.Intn(0x5f))
			}
		}
		return string(b)
	}
	rec := Record{Kind: str(), Time: int64(r.Uint64())}
	if r.Bool(0.5) {
		rec.Boot = r.Intn(1000) - 500
	}
	if r.Bool(0.5) {
		rec.OSVersion = str()
	}
	if r.Bool(0.3) {
		rec.PrevBeat = BeatKind(str())
	}
	if r.Bool(0.3) {
		rec.PrevTime = int64(r.Uint64())
	}
	if r.Bool(0.5) {
		f := math.Float64frombits(r.Uint64())
		if math.IsInf(f, 0) || math.IsNaN(f) {
			f = r.Float64() * 1e24
		}
		rec.OffSeconds = f
	}
	if r.Bool(0.3) {
		rec.Detected = Detection(str())
	}
	if r.Bool(0.5) {
		rec.Category = str()
	}
	if r.Bool(0.5) {
		rec.PType = r.Intn(100) - 50
	}
	if r.Bool(0.4) {
		apps := make([]string, r.Intn(4))
		for i := range apps {
			apps[i] = str()
		}
		rec.Apps = apps
	}
	if r.Bool(0.3) {
		rec.Activity = str()
	}
	if r.Bool(0.2) {
		rec.LogSalvaged = r.Intn(10)
		rec.LogLost = r.Intn(10)
	}
	return rec
}

func TestAppendRecordQuickCheck(t *testing.T) {
	f := func(seed uint64) bool {
		r := sim.NewRand(seed)
		for i := 0; i < 20; i++ {
			rec := randomRecord(r)
			want, err := json.Marshal(rec)
			if err != nil {
				return false
			}
			if !bytes.Equal(AppendRecord(nil, rec), want) {
				t.Logf("mismatch for %+v:\n got %s\nwant %s", rec, AppendRecord(nil, rec), want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func FuzzAppendRecordVsStdlib(f *testing.F) {
	f.Add("boot", "7.0s", "KERN-EXEC", "voice", int64(12345), 42.5)
	f.Add(`we"ird`, "a<b>&c", "\u2028\u2029", string([]byte{0xff, 0xfe}), int64(-1), 1e-9)
	f.Add("", "", "", "", int64(0), 0.0)
	f.Fuzz(func(t *testing.T, kind, osv, cat, act string, tm int64, off float64) {
		if math.IsInf(off, 0) || math.IsNaN(off) {
			t.Skip()
		}
		rec := Record{
			Kind: kind, Time: tm, OSVersion: osv, OffSeconds: off,
			Category: cat, Activity: act, Apps: []string{kind, act},
		}
		want, err := json.Marshal(rec)
		if err != nil {
			t.Skip()
		}
		if got := AppendRecord(nil, rec); !bytes.Equal(got, want) {
			t.Errorf("AppendRecord mismatch:\n got %s\nwant %s", got, want)
		}
	})
}

func TestAppendRecordAllocs(t *testing.T) {
	rec := Record{
		Kind: KindPanic, Time: 1234567890, Category: "KERN-EXEC", PType: 3,
		Apps: []string{"phone", "camera"}, Activity: "voice-call",
	}
	buf := make([]byte, 0, 256)
	avg := testing.AllocsPerRun(1000, func() {
		buf = AppendRecord(buf[:0], rec)
	})
	if avg != 0 {
		t.Errorf("AppendRecord into warm scratch = %v allocs, want 0", avg)
	}
	frame := make([]byte, 0, 512)
	avg = testing.AllocsPerRun(1000, func() {
		frame = AppendFrame(frame[:0], buf)
	})
	if avg != 0 {
		t.Errorf("AppendFrame into warm scratch = %v allocs, want 0", avg)
	}
}
