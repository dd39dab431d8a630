package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
)

// layers are the repository's modules, in report order. A CPU sample is
// charged to the innermost frame of one of these packages; a sample with no
// such frame (GC workers, the scheduler, idle network polling) goes to
// runtime.
var layers = []string{"sim", "symbos", "phone", "core", "collect", "fleet", "stream", "analysis", "report", "runtime"}

// layerPkgs maps a symfail/internal package path to its layer.
var layerPkgs = map[string]string{
	"sim": "sim", "symbos": "symbos", "phone": "phone", "core": "core",
	"collect": "collect", "collect/fleet": "fleet", "analysis/stream": "stream",
	"analysis": "analysis", "report": "report",
}

// codecFuncs are the record codec's entry points. A sample charged to core
// is codec time when the run of core frames it sits in passes through one
// of them.
var codecFuncs = []string{"ScanRecords", "ParseRecords", "Append"}

// layerOf returns the layer a function belongs to ("" for none).
func layerOf(fn string) string {
	const prefix = "symfail/internal/"
	if !strings.HasPrefix(fn, prefix) {
		return ""
	}
	rest := fn[len(prefix):]
	// Internal package paths hold no dots, so the first one ends the path.
	if i := strings.IndexByte(rest, '.'); i >= 0 {
		return layerPkgs[rest[:i]]
	}
	return ""
}

func isCodec(fn string) bool {
	const prefix = "symfail/internal/core."
	if !strings.HasPrefix(fn, prefix) {
		return false
	}
	name := fn[len(prefix):]
	for _, c := range codecFuncs {
		if strings.HasPrefix(name, c) {
			return true
		}
	}
	return false
}

// cpuProfile is the part of a pprof profile the attribution needs: each
// sample's CPU time and its stack as function names, innermost first.
type cpuProfile struct {
	stacks [][]string
	weight []int64
}

// attribute splits a profile's CPU time across layers. shares sums to 1
// over layers whenever the profile holds any CPU time; codec is the share
// spent in the record codec, a part of core's.
func attribute(p *cpuProfile) (shares map[string]float64, codec float64) {
	shares = make(map[string]float64, len(layers))
	for _, l := range layers {
		shares[l] = 0
	}
	var total, codecNs int64
	for i, stack := range p.stacks {
		w := p.weight[i]
		total += w
		layer, inCodec := "runtime", false
		for j, fn := range stack {
			l := layerOf(fn)
			if l == "" {
				continue
			}
			layer = l
			if l == "core" {
				inCodec = coreRunHasCodec(stack[j:])
			}
			break
		}
		shares[layer] += float64(w)
		if inCodec {
			codecNs += w
		}
	}
	if total == 0 {
		return shares, 0
	}
	for l := range shares {
		shares[l] /= float64(total)
	}
	return shares, float64(codecNs) / float64(total)
}

// coreRunHasCodec walks outward from a core frame through the frames that
// are core or outside symfail (stdlib helpers) and reports whether a codec
// entry point is among them; the first frame of another layer ends the run.
func coreRunHasCodec(stack []string) bool {
	for _, fn := range stack {
		switch layerOf(fn) {
		case "core":
			if isCodec(fn) {
				return true
			}
		case "":
		default:
			return false
		}
	}
	return false
}

// profiler takes one CPU profile over the traced study calls, paused around
// the work between them, and the runtime's GC and total CPU time over the
// same windows.
type profiler struct {
	bufs        []*bytes.Buffer
	gc, total   float64
	gc0, total0 float64
}

func (p *profiler) start() error {
	b := new(bytes.Buffer)
	if err := pprof.StartCPUProfile(b); err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	p.bufs = append(p.bufs, b)
	p.gc0, p.total0 = gcCPU()
	return nil
}

func (p *profiler) stop() {
	gc, total := gcCPU()
	pprof.StopCPUProfile()
	p.gc += gc - p.gc0
	p.total += total - p.total0
}

// pause stops the profile for the length of fn.
func (p *profiler) pause(fn func() error) error {
	p.stop()
	err := fn()
	if serr := p.start(); err == nil {
		err = serr
	}
	return err
}

// profile joins the windows' samples into one profile.
func (p *profiler) profile() (*cpuProfile, error) {
	out := &cpuProfile{}
	for _, b := range p.bufs {
		part, err := parseCPUProfile(b.Bytes())
		if err != nil {
			return nil, err
		}
		out.stacks = append(out.stacks, part.stacks...)
		out.weight = append(out.weight, part.weight...)
	}
	return out, nil
}

// gcShare is the share of the windows' CPU time the GC used.
func (p *profiler) gcShare() float64 {
	if p.total <= 0 {
		return 0
	}
	return p.gc / p.total
}

// gcCPU reads the runtime's cumulative GC and total CPU seconds.
func gcCPU() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// parseCPUProfile decodes a gzipped pprof CPU profile (the profile.proto
// wire format runtime/pprof writes) into stacks and CPU nanoseconds.
func parseCPUProfile(gz []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var (
		sampleTypes []int64 // string-table index of each sample type
		samples     [][]uint64
		values      [][]int64
		locFuncs    = map[uint64][]uint64{} // location -> function ids, innermost first
		funcNames   = map[uint64]int64{}    // function -> name string index
		strs        []string
	)
	err = eachField(raw, func(f int, v uint64, b []byte) error {
		switch f {
		case 1: // sample_type
			return eachField(b, func(f int, v uint64, _ []byte) error {
				if f == 1 {
					sampleTypes = append(sampleTypes, int64(v))
				}
				return nil
			})
		case 2: // sample
			var locs []uint64
			var vals []int64
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					return eachVarint(v, b, func(x uint64) { locs = append(locs, x) })
				case 2:
					return eachVarint(v, b, func(x uint64) { vals = append(vals, int64(x)) })
				}
				return nil
			})
			samples, values = append(samples, locs), append(values, vals)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	// CPU time is the "cpu" sample value; fall back to the last one.
	vi := len(sampleTypes) - 1
	for i, t := range sampleTypes {
		if str(t) == "cpu" {
			vi = i
		}
	}
	p := &cpuProfile{}
	for i, locs := range samples {
		if vi < 0 || vi >= len(values[i]) {
			return nil, errors.New("profile: sample without a cpu value")
		}
		var stack []string
		for _, loc := range locs {
			for _, fn := range locFuncs[loc] {
				stack = append(stack, str(funcNames[fn]))
			}
		}
		p.stacks = append(p.stacks, stack)
		p.weight = append(p.weight, values[i][vi])
	}
	return p, nil
}

// eachField walks a protobuf message, calling fn with each field number and
// either its varint value (wire types 0, 1 and 5, fixed widths widened) or
// its bytes (wire type 2).
func eachField(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := fn(field, v, data); err != nil {
			return err
		}
	}
	return nil
}

// eachVarint yields a repeated varint field's values, packed (data set) or
// not (one value in v).
func eachVarint(v uint64, data []byte, fn func(uint64)) error {
	if data == nil {
		fn(v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		fn(x)
		data = data[n:]
	}
	return nil
}
