package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// A small reader for the pprof CPU profile format (gzip-compressed protobuf,
// github.com/google/pprof/proto/profile.proto) — just enough to recover each
// sample's call stack as function names, using only the standard library.

// stackSample is one profile sample: its call stack, innermost frame first
// (inlined calls expanded), and how many times it was seen.
type stackSample struct {
	frames []string
	count  int64
}

var errTruncated = errors.New("truncated protobuf")

// protoField is one decoded field: varint fields carry val, length-delimited
// fields carry data, fixed-width fields are skipped.
type protoField struct {
	num  int
	val  uint64
	data []byte
}

func readVarint(b []byte) (uint64, []byte, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, b[i+1:], nil
		}
	}
	return 0, nil, errTruncated
}

// forEachField walks the fields of one protobuf message.
func forEachField(b []byte, fn func(f protoField) error) error {
	for len(b) > 0 {
		key, rest, err := readVarint(b)
		if err != nil {
			return err
		}
		b = rest
		f := protoField{num: int(key >> 3)}
		switch key & 7 {
		case 0:
			if f.val, b, err = readVarint(b); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
			continue
		case 2:
			n, rest, err := readVarint(b)
			if err != nil {
				return err
			}
			if uint64(len(rest)) < n {
				return errTruncated
			}
			f.data, b = rest[:n], rest[n:]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", key&7)
		}
		if err := fn(f); err != nil {
			return err
		}
	}
	return nil
}

// repeatedVarints appends a repeated integer field's values, packed or not.
func repeatedVarints(dst []uint64, f protoField) ([]uint64, error) {
	if f.data == nil {
		return append(dst, f.val), nil
	}
	for b := f.data; len(b) > 0; {
		v, rest, err := readVarint(b)
		if err != nil {
			return nil, err
		}
		dst, b = append(dst, v), rest
	}
	return dst, nil
}

// readProfile loads a CPU profile written by runtime/pprof.
func readProfile(path string) ([]stackSample, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return parseProfile(raw)
}

func parseProfile(raw []byte) ([]stackSample, error) {
	if len(raw) >= 2 && raw[0] == 0x1f && raw[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(raw))
		if err != nil {
			return nil, err
		}
		if raw, err = io.ReadAll(zr); err != nil {
			return nil, err
		}
	}
	type rawSample struct {
		locs  []uint64
		count int64
	}
	var (
		samples   []rawSample
		locations = map[uint64][]uint64{} // location id -> function ids, innermost first
		functions = map[uint64]uint64{}   // function id -> name's string index
		strs      []string
	)
	err := forEachField(raw, func(f protoField) error {
		switch f.num {
		case 2: // Sample
			var s rawSample
			var values []uint64
			err := forEachField(f.data, func(f protoField) (err error) {
				switch f.num {
				case 1:
					s.locs, err = repeatedVarints(s.locs, f)
				case 2:
					values, err = repeatedVarints(values, f)
				}
				return err
			})
			if err != nil {
				return err
			}
			if len(values) > 0 {
				s.count = int64(values[0]) // sample_type[0] is samples/count
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			err := forEachField(f.data, func(f protoField) error {
				switch f.num {
				case 1:
					id = f.val
				case 4: // Line
					return forEachField(f.data, func(f protoField) error {
						if f.num == 1 {
							fns = append(fns, f.val)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locations[id] = fns
		case 5: // Function
			var id, name uint64
			err := forEachField(f.data, func(f protoField) error {
				switch f.num {
				case 1:
					id = f.val
				case 2:
					name = f.val
				}
				return nil
			})
			if err != nil {
				return err
			}
			functions[id] = name
		case 6:
			strs = append(strs, string(f.data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		st := stackSample{count: s.count}
		for _, loc := range s.locs {
			for _, fn := range locations[loc] {
				if idx := functions[fn]; idx < uint64(len(strs)) {
					st.frames = append(st.frames, strs[idx])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// layerOf maps a function name to the layer (package) that owns it, if it
// belongs to one of the program's layers: "specdb/internal/sim.(*Scheduler).Run"
// is sim, "specdb.(*DB).RunFor" is the specdb facade. Packages that are not
// layers of their own (msg, costs, ...) own nothing, so their time falls
// through to the layer that called them.
func layerOf(fn string) (string, bool) {
	if rest, ok := strings.CutPrefix(fn, "specdb/internal/"); ok {
		pkg, _, _ := strings.Cut(rest, ".")
		for _, l := range cpuLayers {
			if l == pkg {
				return l, true
			}
		}
		return "", false
	}
	if strings.HasPrefix(fn, "specdb.") {
		return "specdb", true
	}
	return "", false
}

// gcRoots are the entry functions of the runtime's background collector
// goroutines: a stack rooted in one is collector work nobody called.
var gcRoots = map[string]bool{
	"runtime.gcBgMarkWorker": true,
	"runtime.bgsweep":        true,
	"runtime.bgscavenge":     true,
}

// layerShares charges every sample to the innermost frame that belongs to a
// layer, so map, allocator and string work counts against the layer that
// asked for it; charging the leaf frame instead puts most of the time in
// package runtime and says nothing about the program. Stacks with no layer
// frame are the background collector (go.runtime) or everything else —
// scheduler park/wake, the harness — reported as other rather than hidden.
// The shares sum to 1.
func layerShares(samples []stackSample) (shares map[string]float64, total int64) {
	counts := map[string]int64{}
	for _, s := range samples {
		total += s.count
		layer := layerOther
		if n := len(s.frames); n > 0 && gcRoots[s.frames[n-1]] {
			layer = layerRuntime
		}
		for _, fn := range s.frames {
			if l, ok := layerOf(fn); ok {
				layer = l
				break
			}
		}
		counts[layer] += s.count
	}
	shares = map[string]float64{layerRuntime: 0, layerOther: 0}
	for _, l := range cpuLayers {
		shares[l] = 0
	}
	for l, c := range counts {
		shares[l] = ratio(float64(c), float64(total))
	}
	return shares, total
}
