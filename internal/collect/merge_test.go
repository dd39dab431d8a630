package collect

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"symfail/internal/core"
	"symfail/internal/sim"
)

// genRecords produces a deterministic, deliberately nasty record stream:
// duplicated serialized forms, distinct records sharing a timestamp, and
// out-of-order times — everything the canonical merge must normalise.
func genRecords(seed uint64, n int) []core.Record {
	rng := sim.NewRand(seed)
	recs := make([]core.Record, 0, n)
	for i := 0; i < n; i++ {
		switch {
		case len(recs) > 0 && rng.Bool(0.2):
			// Exact duplicate of an earlier record (a re-sent chunk).
			recs = append(recs, recs[rng.Intn(len(recs))])
		case rng.Bool(0.3):
			recs = append(recs, core.Record{
				Kind:     core.KindPanic,
				Time:     int64(rng.Intn(50) * 1_000_000_000), // frequent time collisions
				Category: "KERN-EXEC",
				PType:    rng.Intn(4),
				Activity: "idle",
			})
		default:
			recs = append(recs, core.Record{
				Kind:      core.KindBoot,
				Time:      int64(rng.Intn(50) * 1_000_000_000),
				Boot:      rng.Intn(9) + 1,
				OSVersion: "8.0",
				Detected:  core.DetectedShutdown,
			})
		}
	}
	return recs
}

// partition deals the stream into k batches with a deterministic but
// uneven interleaving.
func partition(rng *sim.Rand, recs []core.Record, k int) [][]core.Record {
	batches := make([][]core.Record, k)
	for _, r := range recs {
		i := rng.Intn(k)
		batches[i] = append(batches[i], r)
	}
	return batches
}

// TestMergeRecordsOrderIndependent is the canonical-merge property the
// sharded fleet rests on: however the per-device record stream is split
// into batches, and whatever order those batches arrive in, the merged
// sequence is byte-identical.
func TestMergeRecordsOrderIndependent(t *testing.T) {
	recs := genRecords(1, 200)
	want := EncodeRecords(MergeRecords(recs))
	rng := sim.NewRand(2)
	for trial := 0; trial < 50; trial++ {
		k := 1 + rng.Intn(6)
		batches := partition(rng, recs, k)
		rng.Shuffle(len(batches), func(i, j int) { batches[i], batches[j] = batches[j], batches[i] })
		if rng.Bool(0.5) && k > 1 {
			// Re-send a batch wholesale: merging must be idempotent.
			batches = append(batches, batches[rng.Intn(k)])
		}
		got := EncodeRecords(MergeRecords(batches...))
		if !bytes.Equal(got, want) {
			t.Fatalf("trial %d (%d batches): merged bytes differ from the canonical order\n got: %q\nwant: %q",
				trial, len(batches), got, want)
		}
	}
}

func TestMergeRecordsIdempotent(t *testing.T) {
	merged := MergeRecords(genRecords(3, 120))
	again := MergeRecords(merged, merged[:40], merged[80:])
	if !bytes.Equal(EncodeRecords(again), EncodeRecords(merged)) {
		t.Error("re-merging a merged sequence with its own subsets changed the bytes")
	}
}

func TestMergeRecordsEmpty(t *testing.T) {
	if got := MergeRecords(); len(got) != 0 {
		t.Errorf("merging nothing yielded %d records", len(got))
	}
	if got := MergeRecords(nil, []core.Record{}); len(got) != 0 {
		t.Errorf("merging empty batches yielded %d records", len(got))
	}
}

// TestPutMergedOrderIndependent lifts the property to the Dataset: batches
// applied through PutMerged in any order converge to the same stored bytes
// (given at least two uploads, the first raw store is re-canonicalised by
// the first merge).
func TestPutMergedOrderIndependent(t *testing.T) {
	recs := MergeRecords(genRecords(4, 150)) // start from a clean stream
	rng := sim.NewRand(5)
	var want []byte
	for trial := 0; trial < 30; trial++ {
		batches := partition(rng, recs, 2+rng.Intn(4))
		rng.Shuffle(len(batches), func(i, j int) { batches[i], batches[j] = batches[j], batches[i] })
		ds := NewDataset()
		for _, b := range batches {
			ds.PutMerged("phone-01", EncodeRecords(b))
		}
		got, _ := ds.Get("phone-01")
		if want == nil {
			want = got
			continue
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("trial %d: dataset bytes depend on upload order", trial)
		}
	}
}

// FuzzMergeRecords fuzzes the partition/interleaving space: any way of
// dealing any generated stream into any number of batches, in any order,
// must merge to the reference canonical sequence.
func FuzzMergeRecords(f *testing.F) {
	f.Add(uint64(1), uint64(2), uint8(3))
	f.Add(uint64(42), uint64(7), uint8(1))
	f.Add(uint64(0), uint64(0), uint8(0))
	f.Fuzz(func(t *testing.T, genSeed, dealSeed uint64, k uint8) {
		n := 1 + int(genSeed%97)
		recs := genRecords(genSeed, n)
		want := EncodeRecords(MergeRecords(recs))

		rng := sim.NewRand(dealSeed)
		batches := partition(rng, recs, 1+int(k%8))
		rng.Shuffle(len(batches), func(i, j int) { batches[i], batches[j] = batches[j], batches[i] })
		if got := EncodeRecords(MergeRecords(batches...)); !bytes.Equal(got, want) {
			t.Fatalf("merge depends on interleaving\n got: %q\nwant: %q", got, want)
		}
		// Idempotence under self-merge.
		merged := MergeRecords(batches...)
		if got := EncodeRecords(MergeRecords(merged, merged)); !bytes.Equal(got, want) {
			t.Fatalf("self-merge changed the bytes")
		}
	})
}

// oraclePool is the record population the merge oracle test draws from:
// ordinary boot and panic records with colliding timestamps, plus records
// whose canonical form is not plain ASCII (HTML escapes, non-ASCII text,
// invalid UTF-8), which the merge index can only dedup after a decode.
func oraclePool() []core.Record {
	pool := genRecords(11, 60)
	return append(pool,
		core.Record{Kind: core.KindPanic, Time: 7_000_000_000, Category: "A<B", PType: 1, Activity: "x&y"},
		core.Record{Kind: core.KindPanic, Time: 7_000_000_000, Category: "KERN-EXEC", Apps: []string{"caméra", "phone"}},
		core.Record{Kind: core.KindBoot, Time: 8_000_000_000, Boot: 2, OSVersion: string([]byte{'8', 0xff})},
		core.Record{Kind: core.KindBoot, Time: -3, Boot: 1, OffSeconds: 1e-9, Detected: core.DetectedFreeze},
	)
}

// nonCanonicalLine spells r as valid JSON that is not AppendRecord's form:
// whitespace, or the keys in encoding/json's map (alphabetical) order.
func nonCanonicalLine(rng *sim.Rand, r core.Record) []byte {
	canon := core.AppendRecord(nil, r)
	if rng.Bool(0.5) {
		return append([]byte(" "), canon...)
	}
	var m map[string]any
	if err := json.Unmarshal(canon, &m); err != nil {
		panic(err)
	}
	out, err := json.Marshal(m)
	if err != nil {
		panic(err)
	}
	return out
}

// oracleBatch draws one upload body: a framed stream over a window of the
// pool (a rewound stream starts at zero), or a legacy JSON-lines log with
// some non-canonical lines and garbage; either may be torn or bit-rotted.
func oracleBatch(rng *sim.Rand, pool []core.Record) []byte {
	a := rng.Intn(len(pool))
	b := a + 1 + rng.Intn(len(pool)-a)
	if rng.Bool(0.2) {
		a = 0 // rewound: the stream restarts from the beginning
	}
	var out []byte
	if rng.Bool(0.6) {
		for _, r := range pool[a:b] {
			out = core.AppendFrame(out, core.AppendRecord(nil, r))
		}
	} else {
		for _, r := range pool[a:b] {
			switch {
			case rng.Bool(0.2):
				out = append(out, nonCanonicalLine(rng, r)...)
			case rng.Bool(0.05):
				out = append(out, "not json"...)
			default:
				out = core.AppendRecord(out, r)
			}
			out = append(out, '\n')
		}
	}
	if len(out) > 0 && rng.Bool(0.15) {
		out = out[:len(out)-1-rng.Intn(len(out)/2+1)] // torn tail
	}
	if len(out) > 0 && rng.Bool(0.15) {
		out[rng.Intn(len(out))] ^= 1 << uint(rng.Intn(8)) // bit rot
	}
	return out
}

// TestPutMergedMatchesOracle drives the incremental merge index with random
// sequences of writes — re-sends, rewound streams, framed and legacy first
// writes, damage, non-canonical JSON, Put and resetTo in between — and
// checks after every step that the stored bytes equal the reference
// re-parse-and-re-encode merge.
func TestPutMergedMatchesOracle(t *testing.T) {
	pool := oraclePool()
	rng := sim.NewRand(2007)
	devices := []string{"phone-01", "phone-02"}
	for trial := 0; trial < 60; trial++ {
		ds := NewDataset()
		want := map[string][]byte{}
		var last []byte
		for step := 0; step < 25; step++ {
			id := devices[rng.Intn(len(devices))]
			batch := oracleBatch(rng, pool)
			switch {
			case last != nil && rng.Bool(0.2): // re-send the previous body
				batch = append([]byte(nil), last...)
				fallthrough
			case rng.Bool(0.85):
				old, present := want[id]
				want[id] = mergeOracle(old, present, batch)
				ds.PutMerged(id, batch)
			case rng.Bool(0.5):
				want[id] = append([]byte(nil), batch...)
				ds.Put(id, batch)
			default:
				ds.resetTo(ds.snapshot())
			}
			last = batch
			for _, dev := range devices {
				got, ok := ds.Get(dev)
				exp, present := want[dev]
				if ok != present || !bytes.Equal(got, exp) {
					t.Fatalf("trial %d step %d, %s: stored bytes differ from the oracle\n got: %q\nwant: %q",
						trial, step, dev, got, exp)
				}
			}
		}
	}
}

// TestServerChunkResendFiresNoRecord: at the server level, a re-sent CHUNK
// (a lost acknowledgement) fires no OnRecord and leaves the stored bytes
// alone, and a chunk carrying one new record fires exactly one.
func TestServerChunkResendFiresNoRecord(t *testing.T) {
	recs := []core.Record{
		{Kind: core.KindBoot, Time: 1, Boot: 1, Detected: core.DetectedFirstBoot},
		{Kind: core.KindPanic, Time: 2, Category: "USER", PType: 11},
		{Kind: core.KindPanic, Time: 3, Category: "KERN-EXEC", PType: 3},
	}
	frames := func(rs ...core.Record) []byte {
		var out []byte
		for _, r := range rs {
			out = core.AppendFrame(out, core.AppendRecord(nil, r))
		}
		return out
	}
	ds := NewDataset()
	var tapped []core.Record
	srv, err := NewServerWith("127.0.0.1:0", ds, ServerConfig{
		OnRecord: func(_ string, r core.Record) { tapped = append(tapped, r) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	first := frames(recs[:2]...)
	for i := 0; i < 2; i++ { // the second send is the re-send
		if _, err := (NetTransport{}).UploadChunk(srv.Addr(), "p", 0, first); err != nil {
			t.Fatal(err)
		}
		if len(tapped) != 2 {
			t.Fatalf("after send %d the tap fired %d times, want 2", i+1, len(tapped))
		}
	}
	if _, err := (NetTransport{}).UploadChunk(srv.Addr(), "p", len(first), frames(recs[2])); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tapped, recs) {
		t.Errorf("tap saw %v, want %v", tapped, recs)
	}
	got, _ := ds.Get("p")
	if want := EncodeRecords(recs); !bytes.Equal(got, want) {
		t.Errorf("stored %q, want %q", got, want)
	}
}
