package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/pprof"
)

// Package attribution for the layers no public call isolates: an exact
// allocation profile (MemProfileRate=1) and a sampled CPU profile, each
// stack charged to its innermost shield5g/internal frame (see attribute).

// allocProfile records every allocation made while it is open.
type allocProfile struct {
	oldRate int
	before  map[[32]uintptr]int64
}

func startAllocProfile() *allocProfile {
	p := &allocProfile{oldRate: runtime.MemProfileRate}
	runtime.MemProfileRate = 1
	p.before = memRecords()
	return p
}

// stop returns the allocations made since start, by layer.
func (p *allocProfile) stop() map[string]int64 {
	after := memRecords()
	runtime.MemProfileRate = p.oldRate
	out := make(map[string]int64)
	for key, objects := range after {
		n := objects - p.before[key]
		if n <= 0 {
			continue
		}
		out[attribute(symbolize(key[:]))] += n
	}
	return out
}

// memRecords snapshots the cumulative allocation profile by stack. Two
// collections publish every pending record first.
func memRecords() map[[32]uintptr]int64 {
	runtime.GC()
	runtime.GC()
	var recs []runtime.MemProfileRecord
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		n, ok = runtime.MemProfile(recs, true)
		if ok {
			recs = recs[:n]
			break
		}
	}
	out := make(map[[32]uintptr]int64, len(recs))
	for _, r := range recs {
		out[r.Stack0] += r.AllocObjects
	}
	return out
}

// symbolize turns a program-counter stack into function names, innermost
// first, with inlined calls expanded.
func symbolize(stack []uintptr) []string {
	n := 0
	for n < len(stack) && stack[n] != 0 {
		n++
	}
	var names []string
	frames := runtime.CallersFrames(stack[:n])
	for {
		f, more := frames.Next()
		if f.Function != "" {
			names = append(names, f.Function)
		}
		if !more {
			return names
		}
	}
}

// cpuProfile samples CPU time while it is open.
type cpuProfile struct{ buf bytes.Buffer }

func startCPUProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, err
	}
	return p, nil
}

// stop returns sampled CPU nanoseconds by layer.
func (p *cpuProfile) stop() (map[string]int64, error) {
	pprof.StopCPUProfile()
	samples, err := decodeProfile(p.buf.Bytes())
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	out := make(map[string]int64)
	for _, s := range samples {
		out[attribute(s.stack)] += s.value
	}
	return out, nil
}

// profSample is one decoded profile sample: its stack (innermost function
// first) and its last value (CPU nanoseconds for a CPU profile).
type profSample struct {
	stack []string
	value int64
}

// decodeProfile reads the gzipped profile.proto that runtime/pprof
// writes, keeping only what attribution needs: samples, locations,
// functions and the string table.
func decodeProfile(data []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples []rawSample
		locFns  = make(map[uint64][]uint64) // location -> function ids, innermost first
		fnName  = make(map[uint64]int64)    // function -> string index
		strs    []string
	)
	err = walkFields(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s rawSample
			err := walkFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendPacked(s.locs, w, v, b)
				case 2:
					for _, x := range appendPacked(nil, w, v, b) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := walkFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return walkFields(b, func(f, w int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := walkFields(b, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		ps := profSample{value: s.values[len(s.values)-1]}
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				if i := fnName[fn]; i >= 0 && int(i) < len(strs) {
					ps.stack = append(ps.stack, strs[i])
				}
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

// walkFields calls fn for every field of one protobuf message: v holds a
// varint or fixed value, b a length-delimited payload.
func walkFields(msg []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("short fixed64")
			}
			v, msg = binary.LittleEndian.Uint64(msg), msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("bad length")
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("short fixed32")
			}
			v, msg = uint64(binary.LittleEndian.Uint32(msg)), msg[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field given either unpacked
// (one varint) or packed (a length-delimited run of varints).
func appendPacked(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire != 2 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
