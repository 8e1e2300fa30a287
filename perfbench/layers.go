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

// Layer names the traced run reports self time under. They follow the
// module's package names; a later perf change names the layer it moved
// by these strings.
const (
	layerTrace       = "trace" // internal/workload + internal/trace
	layerCPU         = "cpu"
	layerSimPicker   = "sim.picker" // the clock-heap core picker
	layerSimSystem   = "sim.system" // the rest of internal/sim
	layerCache       = "cache"
	layerPartition   = "partition" // internal/partition + internal/core
	layerUMON        = "umon"
	layerMem         = "mem"
	layerEnergy      = "energy"
	layerCkpt        = "ckpt"
	layerExperiments = "experiments"
	layerStore       = "store"
	layerService     = "service"
	layerMetrics     = "metrics"
	layerCLI         = "cli" // command-line plumbing; the benchmark never calls it
	layerHarness     = "harness"
	layerGC          = "runtime.gc"
	layerUnknown     = "unattributed"
)

// packageLayers maps a package path to its layer. Every package under
// repro/internal must appear here (the self-test enforces it). net/http
// and net count as the service layer because the service is the only
// code in this process that speaks HTTP; their transport goroutines
// carry no repro frame to attribute them by.
var packageLayers = map[string]string{
	"repro/internal/workload":    layerTrace,
	"repro/internal/trace":       layerTrace,
	"repro/internal/cpu":         layerCPU,
	"repro/internal/sim":         layerSimSystem,
	"repro/internal/cache":       layerCache,
	"repro/internal/partition":   layerPartition,
	"repro/internal/core":        layerPartition,
	"repro/internal/umon":        layerUMON,
	"repro/internal/mem":         layerMem,
	"repro/internal/energy":      layerEnergy,
	"repro/internal/ckpt":        layerCkpt,
	"repro/internal/experiments": layerExperiments,
	"repro/internal/store":       layerStore,
	"repro/internal/service":     layerService,
	"repro/internal/metrics":     layerMetrics,
	"repro/internal/cliutil":     layerCLI,
	"repro/internal/prof":        layerCLI,
	"main":                       layerHarness,
	"repro/perfbench":            layerHarness,
	"net/http":                   layerService,
	"net":                        layerService,
}

// pickerFuncs are the internal/sim functions of the clock-heap core
// picker (internal/sim/clockheap.go), split out of sim.system because
// its cost grows with the core count.
var pickerFuncs = []string{"(*clockHeap).", "newClockHeap", "(*corePicker).", "(*System).newPicker"}

// gcFuncs mark a stack as garbage-collector work wherever it sits.
var gcFuncs = map[string]bool{
	"runtime.gcBgMarkWorker": true,
	"runtime.gcAssistAlloc":  true,
	"runtime.gcAssistAlloc1": true,
	"runtime.bgsweep":        true,
	"runtime.bgscavenge":     true,
	"runtime.GC":             true,
}

// packageOf extracts the package path from a symbol name such as
// "repro/internal/sim.(*clockHeap).siftDown" or
// "repro/internal/experiments.(*flight[...]).Do".
func packageOf(fn string) string {
	if i := strings.IndexAny(fn, "(["); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if i := strings.IndexByte(fn[slash+1:], '.'); i >= 0 {
		return fn[:slash+1+i]
	}
	return fn
}

// layerOfFunc returns the layer of one frame, or "" for a frame the map
// does not cover (the standard library, the runtime).
func layerOfFunc(fn string) string {
	pkg := packageOf(fn)
	layer := packageLayers[pkg]
	if layer == layerSimSystem {
		rest := strings.TrimPrefix(fn, pkg+".")
		for _, p := range pickerFuncs {
			if strings.HasPrefix(rest, p) {
				return layerSimPicker
			}
		}
	}
	return layer
}

// layerOfStack attributes one sample, given its frames leaf first:
// garbage-collector work anywhere on the stack is runtime.gc; otherwise
// the nearest mapped frame to the leaf owns it, so library calls count
// toward the layer that made them.
func layerOfStack(frames []string) string {
	for _, f := range frames {
		if gcFuncs[f] {
			return layerGC
		}
	}
	for _, f := range frames {
		if l := layerOfFunc(f); l != "" {
			return l
		}
	}
	return layerUnknown
}

// layerTimes is CPU time in nanoseconds per layer.
type layerTimes map[string]int64

func (lt layerTimes) total() int64 {
	var n int64
	for _, v := range lt {
		n += v
	}
	return n
}

// foldProfile decodes a gzipped pprof CPU profile (as written by
// runtime/pprof) and folds its CPU time into layers.
func foldProfile(gz []byte) (layerTimes, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	cpu := -1
	for i, t := range p.sampleTypes {
		if p.str(t) == "cpu" {
			cpu = i
		}
	}
	if cpu < 0 {
		return nil, errors.New("profile: no cpu sample type")
	}
	funcName := make(map[uint64]string, len(p.functions))
	for id, nameIdx := range p.functions {
		funcName[id] = p.str(nameIdx)
	}
	out := layerTimes{}
	var frames []string
	for _, s := range p.samples {
		if cpu >= len(s.values) {
			continue
		}
		frames = frames[:0]
		for _, loc := range s.locations {
			for _, fid := range p.locations[loc] {
				frames = append(frames, funcName[fid])
			}
		}
		out[layerOfStack(frames)] += s.values[cpu]
	}
	return out, nil
}

// The decoder below reads the subset of the pprof protobuf schema
// (github.com/google/pprof/proto/profile.proto) that CPU attribution
// needs: sample types, samples, locations with their inlined lines,
// functions and the string table.

type pbSample struct {
	locations []uint64
	values    []int64
}

type pbProfile struct {
	sampleTypes []int64 // string-table index of each sample type's name
	samples     []pbSample
	locations   map[uint64][]uint64 // location id -> function ids, leaf first
	functions   map[uint64]int64    // function id -> name string index
	strings     []string
}

func (p *pbProfile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

type pbField struct {
	num  int
	wire int
	v    uint64 // varint / fixed value
	b    []byte // length-delimited payload
}

// pbFields splits one message into its fields.
func pbFields(b []byte) ([]pbField, error) {
	var out []pbField
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errors.New("profile: bad field key")
		}
		b = b[n:]
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			f.v, n = binary.Uvarint(b)
			if n <= 0 {
				return nil, errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return nil, errors.New("profile: short fixed64")
			}
			f.v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return nil, errors.New("profile: bad length")
			}
			f.b, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return nil, errors.New("profile: short fixed32")
			}
			f.v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return nil, fmt.Errorf("profile: wire type %d", f.wire)
		}
		out = append(out, f)
	}
	return out, nil
}

// pbUints decodes a repeated integer field, packed or not.
func pbUints(f pbField, dst []uint64) ([]uint64, error) {
	if f.wire == 0 {
		return append(dst, f.v), nil
	}
	b := f.b
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errors.New("profile: bad packed varint")
		}
		dst, b = append(dst, v), b[n:]
	}
	return dst, nil
}

func parseProfile(b []byte) (*pbProfile, error) {
	top, err := pbFields(b)
	if err != nil {
		return nil, err
	}
	p := &pbProfile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	for _, f := range top {
		switch f.num {
		case 1: // sample_type
			fs, err := pbFields(f.b)
			if err != nil {
				return nil, err
			}
			var typ int64
			for _, g := range fs {
				if g.num == 1 {
					typ = int64(g.v)
				}
			}
			p.sampleTypes = append(p.sampleTypes, typ)
		case 2: // sample
			fs, err := pbFields(f.b)
			if err != nil {
				return nil, err
			}
			var s pbSample
			var vals []uint64
			for _, g := range fs {
				switch g.num {
				case 1:
					if s.locations, err = pbUints(g, s.locations); err != nil {
						return nil, err
					}
				case 2:
					if vals, err = pbUints(g, vals); err != nil {
						return nil, err
					}
				}
			}
			for _, v := range vals {
				s.values = append(s.values, int64(v))
			}
			p.samples = append(p.samples, s)
		case 4: // location
			fs, err := pbFields(f.b)
			if err != nil {
				return nil, err
			}
			var id uint64
			var funcs []uint64
			for _, g := range fs {
				switch g.num {
				case 1:
					id = g.v
				case 4: // line: the first is the innermost inlined call
					ls, err := pbFields(g.b)
					if err != nil {
						return nil, err
					}
					for _, l := range ls {
						if l.num == 1 {
							funcs = append(funcs, l.v)
						}
					}
				}
			}
			p.locations[id] = funcs
		case 5: // function
			fs, err := pbFields(f.b)
			if err != nil {
				return nil, err
			}
			var id uint64
			var name int64
			for _, g := range fs {
				switch g.num {
				case 1:
					id = g.v
				case 2:
					name = int64(g.v)
				}
			}
			p.functions[id] = name
		case 6: // string_table
			p.strings = append(p.strings, string(f.b))
		}
	}
	return p, nil
}
