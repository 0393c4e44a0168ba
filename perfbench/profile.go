package main

// Host-CPU attribution from a runtime/pprof CPU profile. The profile is
// gzip-compressed protobuf (github.com/google/pprof/proto/profile.proto);
// the decoder below reads exactly the fields the attribution needs —
// sample types, samples, locations with their inline chains, functions
// and the string table — so the benchmark stays standard-library only.

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// hostBuckets names the host.* buckets in report order. Every profile
// sample lands in exactly one of them (see bucketOf), so they sum to the
// profile's total CPU time.
var hostBuckets = []string{"mem", "cache", "dram", "bus", "memsys", "proc",
	"core", "apps", "workload", "memmove", "gc", "other"}

// simPackages maps a simulator package path to its host bucket.
var simPackages = map[string]string{
	"activepages/internal/mem":      "mem",
	"activepages/internal/cache":    "cache",
	"activepages/internal/dram":     "dram",
	"activepages/internal/bus":      "bus",
	"activepages/internal/memsys":   "memsys",
	"activepages/internal/proc":     "proc",
	"activepages/internal/core":     "core",
	"activepages/internal/apps":     "apps",
	"activepages/internal/workload": "workload",
}

// gcRoots are the runtime functions under which the collector's own work
// runs; a sample with any of them on its stack is garbage-collection time
// wherever its leaf is.
var gcRoots = map[string]bool{
	"runtime.gcBgMarkWorker": true,
	"runtime.gcAssistAlloc":  true,
	"runtime.bgsweep":        true,
	"runtime.bgscavenge":     true,
}

const (
	checkpointFunc = "activepages/internal/radram.(*Machine).Checkpoint"
	restoreFunc    = "activepages/internal/radram.(*Machine).Restore"
)

// profileSample is one stack with its CPU time. frames are function
// names leaf first, inlined frames expanded.
type profileSample struct {
	frames []string
	cpuNS  int64
}

// hostProfile is the attribution of one CPU profile, in seconds.
type hostProfile struct {
	totalS     float64
	buckets    map[string]float64
	checkpoint float64 // cumulative time under (*radram.Machine).Checkpoint
	restore    float64 // cumulative time under (*radram.Machine).Restore
}

// funcPackage returns the import path of a Go symbol name such as
// "activepages/internal/mem.(*Store).Read" or "runtime.memmove".
func funcPackage(name string) string {
	slash := strings.LastIndex(name, "/")
	if dot := strings.Index(name[slash+1:], "."); dot >= 0 {
		return name[:slash+1+dot]
	}
	return name
}

// bucketOf assigns one sample to its host bucket: collector work first,
// then bulk copies and clears by their leaf, then the leaf's simulator
// package; anything else is "other".
func bucketOf(frames []string) string {
	for _, f := range frames {
		if gcRoots[f] {
			return "gc"
		}
	}
	if len(frames) == 0 {
		return "other"
	}
	leaf := frames[0]
	if leaf == "runtime.memmove" || strings.HasPrefix(leaf, "runtime.memclr") {
		return "memmove"
	}
	pkg := funcPackage(leaf)
	if b, ok := simPackages[pkg]; ok {
		return b
	}
	if strings.HasPrefix(pkg, "activepages/internal/apps/") {
		return "apps"
	}
	return "other"
}

// attribute folds samples into host buckets and the radram checkpoint
// and restore cumulative times.
func attribute(samples []profileSample) hostProfile {
	hp := hostProfile{buckets: make(map[string]float64, len(hostBuckets))}
	for _, b := range hostBuckets {
		hp.buckets[b] = 0
	}
	for _, s := range samples {
		sec := float64(s.cpuNS) / 1e9
		hp.totalS += sec
		hp.buckets[bucketOf(s.frames)] += sec
		var ck, rs bool
		for _, f := range s.frames {
			ck = ck || f == checkpointFunc
			rs = rs || f == restoreFunc
		}
		if ck {
			hp.checkpoint += sec
		}
		if rs {
			hp.restore += sec
		}
	}
	return hp
}

// parseProfile decodes a gzip-compressed pprof CPU profile into samples
// carrying their CPU nanoseconds (the "cpu" sample type).
func parseProfile(gz []byte) ([]profileSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
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
		strs        []string
		sampleTypes []int64 // string-table index of each sample type's name
		samples     []rawSample
		locFuncs    = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames   = map[uint64]int64{}    // function id -> name string index
	)
	err = forFields(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 1: // sample_type
			return forFields(b, func(f, w int, v uint64, _ []byte) error {
				if f == 1 {
					sampleTypes = append(sampleTypes, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s rawSample
			err := forFields(b, func(f, w int, v uint64, bb []byte) error {
				switch f {
				case 1:
					return appendVarints(&s.locs, w, v, bb)
				case 2:
					var vs []uint64
					if err := appendVarints(&vs, w, v, bb); err != nil {
						return err
					}
					for _, x := range vs {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var funcs []uint64
			err := forFields(b, func(f, w int, v uint64, bb []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return forFields(bb, func(lf, lw int, lv uint64, _ []byte) error {
						if lf == 1 {
							funcs = append(funcs, lv)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = funcs
			return err
		case 5: // function
			var id uint64
			var name int64
			err := forFields(b, func(f, w int, v uint64, _ []byte) error {
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
	cpu := -1
	for i, t := range sampleTypes {
		if str(t) == "cpu" {
			cpu = i
		}
	}
	if cpu < 0 {
		return nil, errors.New("profile: no cpu sample type")
	}
	out := make([]profileSample, 0, len(samples))
	for _, s := range samples {
		if cpu >= len(s.values) {
			return nil, errors.New("profile: sample without cpu value")
		}
		ps := profileSample{cpuNS: s.values[cpu]}
		for _, loc := range s.locs {
			for _, fid := range locFuncs[loc] {
				ps.frames = append(ps.frames, str(funcNames[fid]))
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

// appendVarints appends a repeated varint field that may arrive packed
// (wire type 2) or one value at a time (wire type 0).
func appendVarints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

// forFields walks one protobuf message, calling fn with each field number
// and wire type, plus the value for varint fields or the payload for
// length-delimited ones. Fixed-width fields are skipped.
func forFields(b []byte, fn func(field, wire int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
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
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			payload = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, payload); err != nil {
			return err
		}
	}
	return nil
}
