package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// CPU-profile bucketing. runtime/pprof writes a gzipped profile.proto; the
// benchmark decodes the few fields it needs (samples, locations, functions,
// strings) with a minimal protobuf reader so it imports nothing outside the
// standard library, then charges every sample's CPU time to one bucket:
//
//   - "setup": the stack passes through a set-up call (stack building,
//     traffic generation); excluded from the timed-phase split.
//   - "go.gc": the stack is in the allocator or the garbage collector.
//   - "go.sched": the runtime frames at the leaf are goroutine scheduling
//     (park, ready, switch) — the cost of handing the baton between
//     simulated processes that run as goroutines.
//   - otherwise the layer of the leaf-most frame in repro/internal/<layer>,
//     "bench" for the benchmark's own code, or "other".

// setupFrames mark a sample as set-up work.
var setupFrames = []string{
	"repro/internal/core.NewStack",
	"repro/internal/kvcluster.Traffic.Generate",
	"repro/internal/kvcluster.Partition",
	"main.genKV",
}

var gcFramePrefixes = []string{
	"runtime.gc", "runtime.mallocgc", "runtime.bgsweep", "runtime.bgscavenge",
	"runtime.sweepone", "runtime.markroot", "runtime.scanobject", "runtime.greyobject",
	"runtime.wbBuf", "runtime.(*gcWork)", "runtime.(*mheap)", "runtime.(*mcentral)",
	"runtime.(*mcache)", "runtime.(*sweepLocked)", "runtime.newobject", "runtime.makeslice",
	"runtime.growslice", "runtime.newarray",
}

var schedFrames = map[string]bool{
	"runtime.gopark": true, "runtime.goready": true, "runtime.ready": true,
	"runtime.schedule": true, "runtime.findRunnable": true, "runtime.park_m": true,
	"runtime.mcall": true, "runtime.execute": true, "runtime.gogo": true,
	"runtime.wakep": true, "runtime.startm": true, "runtime.stopm": true,
	"runtime.notesleep": true, "runtime.notewakeup": true, "runtime.futexsleep": true,
	"runtime.futexwakeup": true, "runtime.goschedImpl": true, "runtime.gosched_m": true,
	"runtime.runqsteal": true, "runtime.runqgrab": true, "runtime.checkTimers": true,
}

// profileBuckets accumulates CPU nanoseconds per bucket.
type profileBuckets map[string]float64

// classify returns the bucket of one stack, leaf first.
func classify(stack []string) string {
	for _, f := range stack {
		for _, s := range setupFrames {
			if strings.HasPrefix(f, s) {
				return "setup"
			}
		}
	}
	for _, f := range stack {
		for _, p := range gcFramePrefixes {
			if strings.HasPrefix(f, p) {
				return "go.gc"
			}
		}
	}
	for _, f := range stack {
		if !strings.HasPrefix(f, "runtime.") {
			break
		}
		if schedFrames[f] {
			return "go.sched"
		}
	}
	for _, f := range stack {
		if rest, ok := strings.CutPrefix(f, "repro/internal/"); ok {
			if i := strings.IndexAny(rest, "./"); i > 0 {
				return rest[:i]
			}
		}
		if strings.HasPrefix(f, "main.") {
			return "bench"
		}
	}
	return "other"
}

// add decodes one gzipped CPU profile and adds its samples.
func (b profileBuckets) add(gz []byte) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return err
	}
	for _, s := range p.samples {
		var stack []string
		for _, loc := range s.locs {
			for _, fn := range p.locFuncs[loc] {
				stack = append(stack, p.strings[p.funcNames[fn]])
			}
		}
		v := 0.0
		if len(s.values) > 1 {
			v = float64(s.values[1]) // cpu nanoseconds
		} else if len(s.values) == 1 {
			v = float64(s.values[0])
		}
		b[classify(stack)] += v
	}
	return nil
}

// shares returns each bucket's fraction of the non-setup samples.
func (b profileBuckets) shares() map[string]float64 {
	var total float64
	for k, v := range b {
		if k != "setup" {
			total += v
		}
	}
	out := make(map[string]float64, len(b))
	for k, v := range b {
		if k != "setup" && total > 0 {
			out[k] = v / total
		}
	}
	return out
}

type profSample struct {
	locs   []uint64
	values []int64
}

type profile struct {
	samples   []profSample
	locFuncs  map[uint64][]uint64 // location id -> function ids, inlined callee first
	funcNames map[uint64]int64    // function id -> string table index
	strings   []string
}

var errProto = errors.New("profile: malformed protobuf")

// pbuf is a minimal protobuf wire-format reader.
type pbuf struct{ b []byte }

func (p *pbuf) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			return 0, errProto
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errProto
}

// field reads one field: its number, wire type, varint value (types 0)
// or payload (type 2). Fixed-width fields are skipped.
func (p *pbuf) field() (num int, typ int, v uint64, data []byte, err error) {
	key, err := p.varint()
	if err != nil {
		return 0, 0, 0, nil, err
	}
	num, typ = int(key>>3), int(key&7)
	switch typ {
	case 0:
		v, err = p.varint()
	case 1:
		if len(p.b) < 8 {
			return 0, 0, 0, nil, errProto
		}
		p.b = p.b[8:]
	case 2:
		var n uint64
		if n, err = p.varint(); err == nil {
			if uint64(len(p.b)) < n {
				return 0, 0, 0, nil, errProto
			}
			data, p.b = p.b[:n], p.b[n:]
		}
	case 5:
		if len(p.b) < 4 {
			return 0, 0, 0, nil, errProto
		}
		p.b = p.b[4:]
	default:
		err = errProto
	}
	return num, typ, v, data, err
}

// uints appends a repeated varint field given either packed or unpacked.
func uints(dst []uint64, typ int, v uint64, data []byte) ([]uint64, error) {
	if typ == 0 {
		return append(dst, v), nil
	}
	q := pbuf{data}
	for len(q.b) > 0 {
		x, err := q.varint()
		if err != nil {
			return dst, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

func decodeProfile(raw []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]int64{}}
	top := pbuf{raw}
	for len(top.b) > 0 {
		num, typ, _, data, err := top.field()
		if err != nil {
			return nil, err
		}
		if typ != 2 {
			continue
		}
		switch num {
		case 2: // Sample
			var s profSample
			var vals []uint64
			q := pbuf{data}
			for len(q.b) > 0 {
				n, t, v, d, err := q.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					s.locs, err = uints(s.locs, t, v, d)
				case 2:
					vals, err = uints(vals, t, v, d)
				}
				if err != nil {
					return nil, err
				}
			}
			for _, x := range vals {
				s.values = append(s.values, int64(x))
			}
			p.samples = append(p.samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			q := pbuf{data}
			for len(q.b) > 0 {
				n, _, v, d, err := q.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = v
				case 4: // Line
					l := pbuf{d}
					for len(l.b) > 0 {
						ln, _, lv, _, err := l.field()
						if err != nil {
							return nil, err
						}
						if ln == 1 {
							fns = append(fns, lv)
						}
					}
				}
			}
			p.locFuncs[id] = fns
		case 5: // Function
			var id uint64
			var name int64
			q := pbuf{data}
			for len(q.b) > 0 {
				n, _, v, _, err := q.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
			}
			p.funcNames[id] = name
		case 6: // string_table
			p.strings = append(p.strings, string(data))
		}
	}
	for _, name := range p.funcNames {
		if name < 0 || name >= int64(len(p.strings)) {
			return nil, errProto
		}
	}
	return p, nil
}
