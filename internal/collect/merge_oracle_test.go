package collect

import (
	"sort"

	"symfail/internal/core"
)

// MergeRecords is the reference specification of the canonical per-device
// merge, kept as the oracle the incremental merge index is tested against:
// it combines any number of record batches into one deduplicated, totally
// ordered sequence. Records deduplicate by their exact serialized form and
// order by (timestamp, serialized bytes).
func MergeRecords(batches ...[]core.Record) []core.Record {
	seen := make(map[string]bool)
	type keyed struct {
		rec core.Record
		key string
	}
	var all []keyed
	var scratch []byte
	for _, batch := range batches {
		for _, r := range batch {
			scratch = core.AppendRecordLine(scratch[:0], r)
			if seen[string(scratch)] {
				continue
			}
			key := string(scratch)
			seen[key] = true
			all = append(all, keyed{rec: r, key: key})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].rec.Time != all[j].rec.Time {
			return all[i].rec.Time < all[j].rec.Time
		}
		return all[i].key < all[j].key
	})
	out := make([]core.Record, len(all))
	for i, k := range all {
		out[i] = k.rec
	}
	return out
}

// EncodeRecords serialises a record sequence as the dataset stores it: one
// JSON line per record.
func EncodeRecords(recs []core.Record) []byte {
	var out []byte
	for _, r := range recs {
		out = core.AppendRecordLine(out, r)
	}
	return out
}

// mergeOracle is PutMerged's specification on plain bytes: the first write
// (old absent) is kept raw, every later one is the canonical merge of both
// logs.
func mergeOracle(old []byte, present bool, data []byte) []byte {
	if !present {
		return append([]byte(nil), data...)
	}
	return EncodeRecords(MergeRecords(core.ParseRecords(old), core.ParseRecords(data)))
}
