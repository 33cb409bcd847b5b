package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// A minimal reader for the gzipped profile.proto that runtime/pprof
// writes: just the fields needed to charge CPU samples to functions.

// frame is one (possibly inlined) function in a sample's stack.
type frame struct {
	name, file string
}

// cpuSample is one stack, leaf first, with its CPU nanoseconds.
type cpuSample struct {
	stack []frame
	nanos int64
}

var errProto = errors.New("malformed profile")

// protoFields calls fn for each field of a protobuf message. For
// varint fields v holds the value; for length-delimited fields b holds
// the payload.
func protoFields(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errProto
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errProto
			}
			msg = msg[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errProto
			}
			if err := fn(num, 0, msg[n:n+int(l)]); err != nil {
				return err
			}
			msg = msg[n+int(l):]
		case 1:
			if len(msg) < 8 {
				return errProto
			}
			msg = msg[8:]
		case 5:
			if len(msg) < 4 {
				return errProto
			}
			msg = msg[4:]
		default:
			return errProto
		}
	}
	return nil
}

// varints appends a repeated integer field, packed or not.
func varints(dst []uint64, v uint64, b []byte) ([]uint64, error) {
	if b == nil {
		return append(dst, v), nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errProto
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst, nil
}

// parseCPUProfile decodes a gzipped CPU profile into samples.
func parseCPUProfile(gz []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	type rawSample struct{ locs, vals []uint64 }
	type function struct{ name, file uint64 }
	var (
		strs      []string
		types     []uint64 // string index of each sample type
		samples   []rawSample
		locations = map[uint64][]uint64{} // location id -> function ids, innermost first
		functions = map[uint64]function{}
	)
	err = protoFields(raw, func(num int, _ uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return protoFields(b, func(n int, v uint64, _ []byte) error {
				if n == 1 {
					types = append(types, v)
				}
				return nil
			})
		case 2: // sample
			var s rawSample
			err := protoFields(b, func(n int, v uint64, p []byte) error {
				var err error
				switch n {
				case 1:
					s.locs, err = varints(s.locs, v, p)
				case 2:
					s.vals, err = varints(s.vals, v, p)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := protoFields(b, func(n int, v uint64, p []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return protoFields(p, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locations[id] = fns
			return err
		case 5: // function
			var id uint64
			var f function
			err := protoFields(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					f.name = v
				case 4:
					f.file = v
				}
				return nil
			})
			functions[id] = f
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	cpu := -1
	for i, t := range types {
		if str(t) == "cpu" {
			cpu = i
		}
	}
	if cpu < 0 {
		return nil, fmt.Errorf("cpu profile: no cpu sample type")
	}
	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		if cpu >= len(s.vals) {
			return nil, fmt.Errorf("cpu profile: %w", errProto)
		}
		cs := cpuSample{nanos: int64(s.vals[cpu])}
		for _, l := range s.locs {
			for _, f := range locations[l] {
				fn := functions[f]
				cs.stack = append(cs.stack, frame{name: str(fn.name), file: str(fn.file)})
			}
		}
		out = append(out, cs)
	}
	return out, nil
}
