package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// A minimal reader for the pprof profile.proto format, enough to bucket
// CPU and allocation samples by package with the standard library.

// profSample is one sample: its stack (leaf first) and its values.
type profSample struct {
	locs   []uint64
	values []int64
}

// profile holds the decoded parts the bucketing needs.
type profile struct {
	sampleTypes []string            // value names, e.g. "samples", "cpu", "alloc_space"
	samples     []profSample        // in file order
	locFuncs    map[uint64][]uint64 // location id -> function ids, innermost inlined frame first
	funcNames   map[uint64]string   // function id -> name
}

var errProto = errors.New("perfbench: malformed profile")

// protoReader walks one protobuf message.
type protoReader struct{ b []byte }

func (r *protoReader) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(r.b) == 0 {
			return 0, errProto
		}
		c := r.b[0]
		r.b = r.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errProto
}

// field returns the next field's number, wire type, varint value (wire
// type 0) or payload (wire type 2).
func (r *protoReader) field() (num int, wire int, v uint64, payload []byte, err error) {
	key, err := r.varint()
	if err != nil {
		return 0, 0, 0, nil, err
	}
	num, wire = int(key>>3), int(key&7)
	switch wire {
	case 0:
		v, err = r.varint()
	case 1:
		if len(r.b) < 8 {
			return 0, 0, 0, nil, errProto
		}
		r.b = r.b[8:]
	case 2:
		var n uint64
		if n, err = r.varint(); err == nil {
			if uint64(len(r.b)) < n {
				return 0, 0, 0, nil, errProto
			}
			payload, r.b = r.b[:n], r.b[n:]
		}
	case 5:
		if len(r.b) < 4 {
			return 0, 0, 0, nil, errProto
		}
		r.b = r.b[4:]
	default:
		err = errProto
	}
	return num, wire, v, payload, err
}

// uints decodes a repeated integer field, packed or not.
func uints(dst []uint64, wire int, v uint64, payload []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	r := protoReader{payload}
	for len(r.b) > 0 {
		x, err := r.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

// parseProfile decodes a (possibly gzipped) profile.proto.
func parseProfile(data []byte) (*profile, error) {
	if len(data) > 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, err
		}
	}
	p := &profile{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]string{}}
	var strs []string
	var typeIdx []uint64
	funcNameIdx := map[uint64]uint64{}
	r := protoReader{data}
	for len(r.b) > 0 {
		num, wire, _, payload, err := r.field()
		if err != nil {
			return nil, err
		}
		m := protoReader{payload}
		switch num {
		case 1: // sample_type: ValueType{type=1, unit=2}
			for len(m.b) > 0 {
				n, _, v, _, err := m.field()
				if err != nil {
					return nil, err
				}
				if n == 1 {
					typeIdx = append(typeIdx, v)
				}
			}
		case 2: // sample: location_id=1, value=2
			var s profSample
			for len(m.b) > 0 {
				n, w, v, pl, err := m.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					s.locs, err = uints(s.locs, w, v, pl)
				case 2:
					var vals []uint64
					vals, err = uints(nil, w, v, pl)
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				if err != nil {
					return nil, err
				}
			}
			p.samples = append(p.samples, s)
		case 4: // location: id=1, line=4 (Line{function_id=1})
			var id uint64
			var fns []uint64
			for len(m.b) > 0 {
				n, _, v, pl, err := m.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = v
				case 4:
					l := protoReader{pl}
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
		case 5: // function: id=1, name=2
			var id, name uint64
			for len(m.b) > 0 {
				n, _, v, _, err := m.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
			}
			funcNameIdx[id] = name
		case 6: // string_table
			strs = append(strs, string(payload))
		}
		_ = wire
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	for _, i := range typeIdx {
		p.sampleTypes = append(p.sampleTypes, str(i))
	}
	for id, ni := range funcNameIdx {
		p.funcNames[id] = str(ni)
	}
	return p, nil
}

// Bucket names for samples with no frame of this repository.
const (
	bucketSched = "runtime.sched"
	bucketGC    = "runtime.gc"
)

// repoPackage returns the bucket of a function name: the package
// under twobssd/internal, "perfbench" for the benchmark itself, or ""
// for code outside the repository.
func repoPackage(fn string) string {
	switch {
	case strings.HasPrefix(fn, "twobssd/internal/"):
		rest := fn[len("twobssd/internal/"):]
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			rest = rest[:i]
		}
		return rest
	case strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "twobssd/perfbench"):
		return "perfbench"
	}
	return ""
}

// isGC reports whether a runtime frame belongs to the garbage
// collector's own workers (as opposed to allocation on a caller's
// behalf, which is charged to the caller).
func isGC(fn string) bool {
	return strings.HasPrefix(fn, "runtime.gc") || strings.HasPrefix(fn, "runtime.bgsweep") ||
		strings.HasPrefix(fn, "runtime.bgscavenge") || strings.HasPrefix(fn, "runtime.markroot") ||
		strings.HasPrefix(fn, "runtime.scanobject")
}

// buckets sums one sample value per package: each sample goes to the
// innermost frame of this repository on its stack, so runtime work
// below repository code is charged to that code. Samples with no
// repository frame go to runtime.gc (collector workers) or
// runtime.sched (everything else: scheduler, idle, syscalls).
func (p *profile) buckets(valueIdx int) map[string]int64 {
	out := map[string]int64{}
	for _, s := range p.samples {
		if valueIdx >= len(s.values) {
			continue
		}
		v := s.values[valueIdx]
		bucket, gc := "", false
	stack:
		for _, loc := range s.locs {
			for _, fid := range p.locFuncs[loc] {
				name := p.funcNames[fid]
				if b := repoPackage(name); b != "" {
					bucket = b
					break stack
				}
				gc = gc || isGC(name)
			}
		}
		if bucket == "" {
			bucket = bucketSched
			if gc {
				bucket = bucketGC
			}
		}
		out[bucket] += v
	}
	return out
}

// valueIndex finds a sample value by type name.
func (p *profile) valueIndex(name string) (int, error) {
	for i, t := range p.sampleTypes {
		if t == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("perfbench: profile has no %q values (has %v)", name, p.sampleTypes)
}

// fractions normalizes buckets to shares of their total.
func fractions(b map[string]int64) map[string]float64 {
	var total int64
	for _, v := range b {
		total += v
	}
	out := make(map[string]float64, len(b))
	if total == 0 {
		return out
	}
	keys := make([]string, 0, len(b))
	for k := range b {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		out[k] = float64(b[k]) / float64(total)
	}
	return out
}
