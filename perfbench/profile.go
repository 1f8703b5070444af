package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
)

// The standard library writes CPU profiles as gzipped protocol buffers
// (github.com/google/pprof/proto/profile.proto) but ships no reader outside
// its internal packages. The decoder below reads the four messages the
// fold needs; field numbers are those of profile.proto.
const (
	profSample   = 2 // Profile.sample
	profLocation = 4 // Profile.location
	profFunction = 5 // Profile.function
	profStrings  = 6 // Profile.string_table

	sampleLocationID = 1 // Sample.location_id, leaf first
	sampleValue      = 2 // Sample.value; [0] is the sample count
	locationID       = 1 // Location.id
	locationLine     = 4 // Location.line, innermost inlined frame first
	lineFunctionID   = 1 // Line.function_id
	functionID       = 1 // Function.id
	functionName     = 2 // Function.name, an index into string_table
)

var errProto = errors.New("malformed profile")

// leafSamples decodes a gzipped CPU profile and returns the sample count of
// each leaf function: the innermost frame of each sample's first location,
// so an inlined callee counts as itself, not as its caller.
func leafSamples(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		loc uint64
		n   int64
	}
	var (
		samples []sample
		strs    []string
		locFunc = map[uint64]uint64{} // location id → leaf function id
		funcStr = map[uint64]uint64{} // function id → name string index
	)
	err = eachField(raw, func(num int, wire uint64, v uint64, data []byte) error {
		switch num {
		case profSample:
			var locs, vals []uint64
			if err := eachField(data, func(num int, wire uint64, v uint64, data []byte) error {
				var err error
				switch num {
				case sampleLocationID:
					locs, err = appendVarints(locs, wire, v, data)
				case sampleValue:
					vals, err = appendVarints(vals, wire, v, data)
				}
				return err
			}); err != nil {
				return err
			}
			if len(locs) > 0 && len(vals) > 0 {
				samples = append(samples, sample{loc: locs[0], n: int64(vals[0])})
			}
		case profLocation:
			var id, fn uint64
			seenLine := false
			if err := eachField(data, func(num int, wire uint64, v uint64, data []byte) error {
				switch {
				case num == locationID:
					id = v
				case num == locationLine && !seenLine:
					seenLine = true
					return eachField(data, func(num int, _ uint64, v uint64, _ []byte) error {
						if num == lineFunctionID {
							fn = v
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFunc[id] = fn
		case profFunction:
			var id, name uint64
			if err := eachField(data, func(num int, _ uint64, v uint64, _ []byte) error {
				switch num {
				case functionID:
					id = v
				case functionName:
					name = v
				}
				return nil
			}); err != nil {
				return err
			}
			funcStr[id] = name
		case profStrings:
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := map[string]int64{}
	for _, s := range samples {
		name := "?" // a location without symbol information
		if fn, ok := locFunc[s.loc]; ok && fn != 0 {
			if idx := funcStr[fn]; idx < uint64(len(strs)) {
				name = strs[idx]
			}
		}
		out[name] += s.n
	}
	return out, nil
}

// eachField calls fn for every field of one protobuf message with its
// number, wire type, and either its scalar value or its bytes.
func eachField(b []byte, fn func(num int, wire uint64, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		var (
			v    uint64
			data []byte
		)
		switch wire := key & 7; wire {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errProto
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return errProto
		}
		if err := fn(int(key>>3), key&7, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field's values, which arrive
// either one per field (wire type 0) or packed into one field (type 2).
func appendVarints(dst []uint64, wire, v uint64, data []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, errProto
		}
		dst, data = append(dst, x), data[n:]
	}
	return dst, nil
}
