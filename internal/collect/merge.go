package collect

import (
	"cmp"
	"hash/crc32"
	"slices"
	"strings"

	"symfail/internal/core"
)

// The canonical per-device record merge. A device's merged log is the set
// of its distinct records, each stored as its canonical line (AppendRecordLine's
// bytes), in (timestamp, line) order. The merge is idempotent, commutative
// and associative — any interleaving of the same batches, in any order,
// across any number of calls, merges to the identical bytes — which is
// what makes the collected dataset independent of upload scheduling:
// re-sends after lost acknowledgements, rewound streams and concurrent
// per-shard uploads all collapse to the same log. The byte tie-break gives
// equal-time records a total order no arrival schedule can perturb; device
// identity, the outermost key of the merge order, lives in the Dataset
// keying above this level.

// mergeIndex is the merge state of one device whose log has been through at
// least one merge: the set of its canonical record lines, and the same
// lines in merge order — the order the stored bytes hold them in. With it a
// merge walks only the incoming bytes (newRecords): a known payload is
// skipped undecoded, and only new records are decoded, keyed and inserted.
type mergeIndex struct {
	lines map[string]struct{}
	order []indexedLine
	// size is the total length of the lines: the stored log's length.
	size int
	// pending holds lines added since the last commit, unordered.
	pending []indexedLine
}

// indexedLine is one record's canonical line with its timestamp, the
// primary merge key.
type indexedLine struct {
	time int64
	line string
}

func compareLines(a, b indexedLine) int {
	if c := cmp.Compare(a.time, b.time); c != 0 {
		return c
	}
	return strings.Compare(a.line, b.line)
}

// newRecords walks data's payloads in log order and, for every record
// whose canonical line (AppendRecordLine's bytes) is not yet in seen, adds
// the line to seen and calls fn with it and the record. scratch is the
// caller's reusable buffer; the grown buffer is returned.
//
// A payload whose bytes plus "\n" are already in seen is skipped without
// decoding. That is sound because every line in seen is AppendRecordLine of
// a record that came out of core.DecodeRecord, and such a record re-encodes
// to the same bytes (the round-trip invariant the core decoder tests pin).
// A payload equal to a line minus its newline therefore decodes to a record
// whose line is that line — a duplicate. Every other payload is decoded and
// keyed by its canonical line, so non-canonical spellings of a known record
// are caught too.
func newRecords(data []byte, seen map[string]struct{}, scratch []byte, fn func(line string, r core.Record)) []byte {
	_ = core.ScanPayloads(data, func(payload []byte) error {
		scratch = append(append(scratch[:0], payload...), '\n')
		if _, dup := seen[string(scratch)]; dup { // alloc-free lookup
			return nil
		}
		r, ok := core.DecodeRecord(payload)
		if !ok {
			return nil
		}
		scratch = core.AppendRecordLine(scratch[:0], r)
		if _, dup := seen[string(scratch)]; dup {
			return nil
		}
		line := string(scratch)
		seen[line] = struct{}{}
		fn(line, r)
		return nil
	})
	return scratch
}

// add queues every record of data the index does not hold yet.
func (ix *mergeIndex) add(data, scratch []byte) []byte {
	return newRecords(data, ix.lines, scratch, func(line string, r core.Record) {
		ix.pending = append(ix.pending, indexedLine{time: r.Time, line: line})
	})
}

// commit folds the pending lines into the merge order and returns the
// device's stored bytes. stored is the current log: it is returned as is
// when nothing is pending, unless rebuild is set because stored is a raw
// first write rather than the merged form. Otherwise the bytes are
// re-encoded from the order.
func (ix *mergeIndex) commit(stored []byte, rebuild bool) []byte {
	if len(ix.pending) == 0 && !rebuild {
		return stored
	}
	slices.SortFunc(ix.pending, compareLines)
	for _, l := range ix.pending {
		ix.size += len(l.line)
	}
	merged := make([]indexedLine, 0, len(ix.order)+len(ix.pending))
	i, j := 0, 0
	for i < len(ix.order) && j < len(ix.pending) {
		if compareLines(ix.order[i], ix.pending[j]) < 0 {
			merged = append(merged, ix.order[i])
			i++
		} else {
			merged = append(merged, ix.pending[j])
			j++
		}
	}
	merged = append(append(merged, ix.order[i:]...), ix.pending[j:]...)
	ix.order, ix.pending = merged, nil
	out := make([]byte, 0, ix.size)
	for _, l := range ix.order {
		out = append(out, l.line...)
	}
	return out
}

// CRC32C is the dataset's canonical fingerprint: a CRC-32C over every
// device ID and its log bytes, in sorted device order. Two datasets with
// the same fingerprint hold byte-identical logs for the same devices — the
// serial-vs-parallel equivalence tests compare whole runs through this one
// number.
func (ds *Dataset) CRC32C() uint32 {
	var sum uint32
	for _, id := range ds.Devices() {
		data, _ := ds.Get(id)
		sum = crc32.Update(sum, castagnoli, []byte(id))
		sum = crc32.Update(sum, castagnoli, data)
	}
	return sum
}
