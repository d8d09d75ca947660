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

// cpuModules are the modules whose CPU share the traced run reports: the
// program's packages, the benchmark itself ("perfbench") and "runtime" for
// samples with no frame of either (garbage collection workers, the
// scheduler).
var cpuModules = []string{
	"sim", "mhp", "egp", "photonics", "quantum", "nv", "classical", "wire",
	"netsim", "network", "workload", "metrics", "obs", "faults", "scenario",
	"perfbench", "runtime",
}

// moduleOf maps a function name to its module: the repro/internal package,
// "perfbench" for the benchmark's main package, or "" for anything else.
func moduleOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "repro/internal/"); ok {
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			return rest[:i]
		}
		return rest
	}
	if strings.HasPrefix(fn, "main.") {
		return "perfbench"
	}
	return ""
}

// cpuShares decodes a CPU profile in the gzip-compressed pprof format and
// returns each module's share of the sampled CPU time. A sample is charged
// to the innermost frame that belongs to a module, so time in the Go runtime
// (allocation, maps, write barriers) lands on the code that called it.
func cpuShares(raw []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := decodeProfile(data)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	valueIdx := len(p.sampleTypes) - 1
	for i, t := range p.sampleTypes {
		if t < int64(len(p.strings)) && p.strings[t] == "cpu" {
			valueIdx = i
		}
	}
	funcName := func(id uint64) string {
		idx := p.funcs[id]
		if idx < 0 || idx >= int64(len(p.strings)) {
			return ""
		}
		return p.strings[idx]
	}
	charged := map[string]float64{}
	var total float64
	for _, s := range p.samples {
		if valueIdx < 0 || valueIdx >= len(s.values) {
			continue
		}
		v := float64(s.values[valueIdx])
		total += v
		mod := "runtime"
	walk:
		for _, loc := range s.locs {
			for _, fn := range p.locs[loc] {
				if m := moduleOf(funcName(fn)); m != "" {
					mod = m
					break walk
				}
			}
		}
		charged[mod] += v
	}
	out := map[string]float64{}
	for _, m := range cpuModules {
		out[m] = ratio(charged[m], total)
	}
	return out, nil
}

// profile is the part of a pprof profile the CPU shares need.
type profile struct {
	sampleTypes []int64 // string-table index of each value's type
	samples     []sample
	locs        map[uint64][]uint64 // location ID -> function IDs, innermost first
	funcs       map[uint64]int64    // function ID -> string-table index of its name
	strings     []string
}

type sample struct {
	locs   []uint64 // leaf first
	values []int64
}

// decodeProfile parses the protobuf encoding of perftools.profiles.Profile,
// keeping sample types, samples, locations, functions and strings.
func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locs: map[uint64][]uint64{}, funcs: map[uint64]int64{}}
	err := eachField(b, func(num int, wt int, v uint64, msg []byte) error {
		switch num {
		case 1: // sample_type
			return eachField(msg, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 {
					p.sampleTypes = append(p.sampleTypes, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s sample
			err := eachField(msg, func(n, wt int, v uint64, m []byte) error {
				switch n {
				case 1:
					return appendVarints(&s.locs, wt, v, m)
				case 2:
					var vals []uint64
					if err := appendVarints(&vals, wt, v, m); err != nil {
						return err
					}
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(msg, func(n, _ int, v uint64, m []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return eachField(m, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(msg, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcs[id] = name
			return err
		case 6: // string_table
			p.strings = append(p.strings, string(msg))
		}
		return nil
	})
	return p, err
}

// appendVarints appends a repeated integer field, packed or not.
func appendVarints(dst *[]uint64, wt int, v uint64, msg []byte) error {
	if wt == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(msg) > 0 {
		x, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		msg = msg[n:]
	}
	return nil
}

// eachField walks the fields of one protobuf message, passing varints as v
// and length-delimited fields as msg.
func eachField(b []byte, fn func(num, wireType int, v uint64, msg []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wt := int(key>>3), int(key&7)
		var v uint64
		var msg []byte
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
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			msg = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wt)
		}
		if err := fn(num, wt, v, msg); err != nil {
			return err
		}
	}
	return nil
}
