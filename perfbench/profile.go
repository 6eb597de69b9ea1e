package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// sample is one CPU profile sample: its stack as function names, innermost
// first (inlined frames expanded), and the CPU time it stands for.
type sample struct {
	stack []string
	cpuNs int64
}

// internalPrefix is the import-path prefix of the repository's layers.
const internalPrefix = "secureblox/internal/"

// layerOf charges one stack to a layer: the innermost
// secureblox/internal/<pkg> frame names it, so standard-library frames
// (crypto/rsa, runtime.mallocgc) count for the layer that called them.
// A stack with no such frame is the Go runtime's own work (GC background
// workers, the scheduler) when it holds only runtime frames, the
// benchmark driver's when it reaches package main, and "other" otherwise.
func layerOf(stack []string) string {
	onlyRuntime := true
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, internalPrefix); ok {
			if i := strings.IndexAny(rest, "./"); i >= 0 {
				rest = rest[:i]
			}
			return rest
		}
		if !strings.HasPrefix(fn, "runtime.") && !strings.HasPrefix(fn, "runtime/") {
			onlyRuntime = false
		}
	}
	for _, fn := range stack {
		if strings.HasPrefix(fn, "main.") {
			return "bench"
		}
	}
	if onlyRuntime {
		return "runtime"
	}
	return "other"
}

// attribute sums the samples' CPU seconds per layer.
func attribute(samples []sample) map[string]float64 {
	out := map[string]float64{}
	for _, s := range samples {
		out[layerOf(s.stack)] += float64(s.cpuNs) / 1e9
	}
	return out
}

// parseProfile decodes a gzipped pprof CPU profile as runtime/pprof writes
// it into its samples. It reads only the fields attribution needs:
// samples, locations with their (inlined) lines, functions and the string
// table.
func parseProfile(data []byte) ([]sample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples    []rawSample
		locFuncs   = map[uint64][]uint64{} // location id → function ids, innermost first
		funcName   = map[uint64]int64{}    // function id → string index
		strs       []string
		valueIndex = -1
		typeNames  []int64 // sample_type string indexes, in order
	)
	err = walkFields(raw, func(field int, wt int, v uint64, b []byte) error {
		switch field {
		case 1: // sample_type
			return walkFields(b, func(f, _ int, v uint64, _ []byte) error {
				if f == 1 {
					typeNames = append(typeNames, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s rawSample
			err := walkFields(b, func(f, wt int, v uint64, b []byte) error {
				switch f {
				case 1:
					return appendVarints(&s.locs, wt, v, b)
				case 2:
					var vals []uint64
					if err := appendVarints(&vals, wt, v, b); err != nil {
						return err
					}
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := walkFields(b, func(f, _ int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return walkFields(b, func(f, _ int, v uint64, _ []byte) error {
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
			err := walkFields(b, func(f, _ int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	for i, t := range typeNames {
		if t >= 0 && int(t) < len(strs) && strs[t] == "cpu" {
			valueIndex = i
		}
	}
	if valueIndex < 0 {
		return nil, errors.New("profile: no cpu sample type")
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	out := make([]sample, 0, len(samples))
	for _, s := range samples {
		if valueIndex >= len(s.values) {
			return nil, errors.New("profile: sample without cpu value")
		}
		var stack []string
		for _, l := range s.locs {
			for _, f := range locFuncs[l] {
				stack = append(stack, str(funcName[f]))
			}
		}
		out = append(out, sample{stack: stack, cpuNs: s.values[valueIndex]})
	}
	return out, nil
}

// walkFields calls fn for each top-level field of a protobuf message: the
// varint value for wire type 0, the payload for wire type 2. Fixed-width
// fields are skipped.
func walkFields(b []byte, fn func(field, wireType int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		field, wt := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
		switch wt {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			payload = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wt)
		}
		if err := fn(field, wt, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed (wire type 2) or
// not (wire type 0).
func appendVarints(dst *[]uint64, wt int, v uint64, b []byte) error {
	if wt == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}
