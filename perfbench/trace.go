package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// span is one timed call from the benchmark into a layer. Spans of one
// invocation share Run; Parent is the enclosing span's ID (0 at top level).
type span struct {
	Run     string `json:"run"`
	Point   int    `json:"point"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer records spans around the benchmark's calls into the simulator.
// Spans are always timed — they are how the benchmark measures set-up and
// run time — and kept in memory; traced invocations write them out at the
// end.
type tracer struct {
	run   string
	t0    time.Time
	point int
	keep  bool
	spans []span
	open  []int // stack of indices into spans
}

func newTracer(workload string, seed uint64, keep bool) *tracer {
	t0 := time.Now()
	return &tracer{
		run:   fmt.Sprintf("%s-s%d-%d", workload, seed, t0.UnixNano()),
		t0:    t0,
		point: -1,
		keep:  keep,
	}
}

// startPoint tags the following spans with point i and drops any spans a
// failed point left open.
func (t *tracer) startPoint(i int) {
	t.point = i
	t.open = t.open[:0]
}

// begin opens a span nested in the innermost open one.
func (t *tracer) begin(name string) {
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	t.spans = append(t.spans, span{
		Run: t.run, Point: t.point, ID: len(t.spans) + 1, Parent: parent,
		Name: name, StartNs: time.Since(t.t0).Nanoseconds(),
	})
	t.open = append(t.open, len(t.spans)-1)
}

// end closes the innermost open span and returns its duration in seconds.
func (t *tracer) end() float64 {
	n := len(t.open)
	sp := &t.spans[t.open[n-1]]
	t.open = t.open[:n-1]
	sp.EndNs = time.Since(t.t0).Nanoseconds()
	d := float64(sp.EndNs-sp.StartNs) / 1e9
	if !t.keep {
		// Untraced runs need the duration, not the record.
		t.spans = t.spans[:len(t.spans)-1]
	}
	return d
}

// write stores the spans as JSON lines in dir/<run>.spans.jsonl.
func (t *tracer) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, t.run+".spans.jsonl"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, sp := range t.spans {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// modulePrefix is the import-path prefix of the simulator's packages.
const modulePrefix = "repro/internal/"

// moduleOf maps a package under repro/internal/ to the module its CPU time
// is credited to.
func moduleOf(pkg string) string {
	switch {
	case pkg == "netsim/workload":
		return "workload"
	case pkg == "netsim" || pkg == "netsim/topogen":
		return "netsim"
	case strings.HasPrefix(pkg, "apps/"):
		return "apps"
	}
	switch pkg {
	case "sim", "proto", "link", "orch", "hostsim", "nicsim", "snap", "profiler":
		return pkg
	}
	return "other"
}

// selfModules are the modules moduleSelfTime reports, every one of them
// present in its result.
var selfModules = []string{"sim", "netsim", "workload", "proto", "link", "orch",
	"hostsim", "nicsim", "apps", "snap", "profiler", "other", "runtime"}

// moduleSelfTime reads a CPU profile (gzipped pprof protobuf) and credits
// each sample's CPU time to the innermost frame in a repro/internal package;
// samples with no such frame go to "runtime". It returns seconds per module.
func moduleSelfTime(profile []byte) (map[string]float64, error) {
	p, err := parseProfile(profile)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(selfModules))
	for _, m := range selfModules {
		out[m] = 0
	}
	// Module of each location: its innermost line in a simulator package.
	locMod := make(map[uint64]string, len(p.locations))
	for id, fns := range p.locations {
		for _, fn := range fns {
			if mod, ok := simulatorModule(p.funcName(fn)); ok {
				locMod[id] = mod
				break
			}
		}
	}
	for _, s := range p.samples {
		mod := "runtime"
		for _, loc := range s.locs {
			if m, ok := locMod[loc]; ok {
				mod = m
				break
			}
		}
		out[mod] += float64(s.nanos) / 1e9
	}
	return out, nil
}

// simulatorModule returns the module of a fully qualified function name
// such as "repro/internal/netsim.(*Switch).forward".
func simulatorModule(fn string) (string, bool) {
	rest, ok := strings.CutPrefix(fn, modulePrefix)
	if !ok {
		return "", false
	}
	pkg := rest
	slash := strings.LastIndexByte(rest, '/')
	if dot := strings.IndexByte(rest[slash+1:], '.'); dot >= 0 {
		pkg = rest[:slash+1+dot]
	}
	return moduleOf(pkg), true
}

// cpuProfile is the part of a pprof profile the attribution needs.
type cpuProfile struct {
	strings   []string
	functions map[uint64]int64    // function id -> name string index
	locations map[uint64][]uint64 // location id -> function ids, innermost first
	samples   []profSample
}

type profSample struct {
	locs  []uint64 // leaf first
	nanos int64
}

func (p *cpuProfile) funcName(id uint64) string {
	i := p.functions[id]
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

var errProto = errors.New("malformed profile")

// parseProfile decodes the fields of the pprof protobuf (profile.proto)
// that CPU attribution reads: samples (location ids, values), locations
// (lines' function ids), functions (name) and the string table. The CPU
// time is the last sample value (nanoseconds in Go CPU profiles).
func parseProfile(data []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p := &cpuProfile{functions: map[uint64]int64{}, locations: map[uint64][]uint64{}}
	err = eachField(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s profSample
			var vals []int64
			err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					ids, err := packed(w, v, b)
					s.locs = append(s.locs, ids...)
					return err
				case 2:
					xs, err := packed(w, v, b)
					for _, x := range xs {
						vals = append(vals, int64(x))
					}
					return err
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(vals) > 0 {
				s.nanos = vals[len(vals)-1]
			}
			p.samples = append(p.samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(f, w int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locations[id] = fns
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.functions[id] = name
		case 6: // string_table
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// eachField walks a protobuf message, calling fn with each field number,
// wire type, and either its varint value or its length-delimited bytes.
func eachField(msg []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errProto
		}
		msg = msg[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errProto
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errProto
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errProto
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errProto
			}
			msg = msg[4:]
		default:
			return errProto
		}
		if err := fn(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// packed decodes a repeated varint field in either encoding.
func packed(wire int, v uint64, b []byte) ([]uint64, error) {
	if wire == 0 {
		return []uint64{v}, nil
	}
	var out []uint64
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errProto
		}
		out = append(out, x)
		b = b[n:]
	}
	return out, nil
}
