package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"
)

// config selects one benchmark invocation.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	tiny     bool
	outDir   string
}

// scenario is one benchmark workload. prepare runs once, unmeasured: it
// computes the references the measured points are checked against (and,
// for the warm-start sweep, takes the checkpoint, recording per-layer
// values measured only there in fixed). point runs the measured
// part of one point — set-up and executor call — and fills the sample's
// timings. check then reads the finished point's counters into the sample
// and compares its outputs with the references, outside the CPU profile. A
// non-nil error from either marks the point failed.
type scenario interface {
	prepare(tr *tracer, fixed map[string]float64) error
	point(tr *tracer, s *sample) error
	check(s *sample) error
}

// workloads lists every workload with its constructor, in the order -report
// runs them.
var workloads = []struct {
	name  string
	build func(seed uint64, tiny bool) scenario
}{
	{"fabric-seq", func(seed uint64, tiny bool) scenario { return newFabric(seed, tiny, false) }},
	{"fabric-par2", func(seed uint64, tiny bool) scenario { return newFabric(seed, tiny, true) }},
	{"clocksync-ptp", func(seed uint64, tiny bool) scenario { return newClockSync(seed, tiny) }},
	{"fabric-warmsweep", func(seed uint64, tiny bool) scenario { return newWarmSweep(seed, tiny) }},
}

// workloadNamed returns the named workload's constructor, nil if none.
func workloadNamed(name string) func(seed uint64, tiny bool) scenario {
	for _, w := range workloads {
		if w.name == name {
			return w.build
		}
	}
	return nil
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a simulator user sees, reported by untraced runs.
var endToEnd = []metricDef{
	{"sim_speed", "sim-s/s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
	{"point_s", "s"},
}

// perLayer are the per-module metrics a traced run reports. A module that a
// workload does not exercise reads 0 there.
var perLayer = []metricDef{
	{"sim.events", "count"},
	{"sim.events_per_s", "1/s"},
	{"sim.ns_per_event", "ns"},
	{"sim.self_s", "s"},
	{"netsim.self_s", "s"},
	{"netsim.pkts", "count"},
	{"netsim.ns_per_pkt", "ns"},
	{"netsim.flowcache_hit_ratio", "ratio"},
	{"netsim.route_b_per_host", "B"},
	{"topo.build_s", "s"},
	{"workload.install_s", "s"},
	{"workload.flows_done", "count"},
	{"workload.self_s", "s"},
	{"proto.frame_allocs", "count"},
	{"proto.frame_reuse_ratio", "ratio"},
	{"proto.self_s", "s"},
	{"link.wait_s", "s"},
	{"link.proc_s", "s"},
	{"link.wait_share", "ratio"},
	{"link.data_msgs", "count"},
	{"link.sync_msgs", "count"},
	{"link.sync_per_data", "ratio"},
	{"link.self_s", "s"},
	{"orch.wire_s", "s"},
	{"orch.run_s", "s"},
	{"orch.event_imbalance", "ratio"},
	{"orch.self_s", "s"},
	{"hostsim.self_s", "s"},
	{"nicsim.self_s", "s"},
	{"apps.self_s", "s"},
	{"ckpt.bytes", "B"},
	{"ckpt.capture_s", "s"},
	{"ckpt.load_s", "s"},
	{"ckpt.resume_s", "s"},
	{"snap.self_s", "s"},
	{"profiler.samples", "count"},
	{"profiler.analyze_s", "s"},
	{"profiler.self_s", "s"},
	{"other.self_s", "s"},
	{"runtime.self_s", "s"},
	{"runtime.gc_cycles", "count"},
	{"runtime.alloc_mb", "MiB"},
	{"runtime.alloc_b_per_event", "B"},
	{"trace.overhead", "ratio"},
}

// sample is one measured point.
type sample struct {
	setupS float64 // set-up: build, materialize, install, wire
	runS   float64 // the executor call
	pointS float64 // the whole point as a user waits for it
	simS   float64 // simulated seconds the executor call covered
	rssMB  float64 // peak resident memory during the point
	traced bool    // CPU-profiled point (trace mode, every other point)
	layers map[string]float64
}

func (s *sample) speed() float64 { return s.simS / s.runS }

// measurement is the outcome of one invocation.
type measurement struct {
	cfg       config
	attempted int
	errs      []error // one per failed point
	samples   []sample
	// fixed holds per-layer values measured once per invocation, outside
	// the points (the warm-start sweep's checkpoint capture).
	fixed map[string]float64
}

// minPoints is how many points every invocation measures, however short
// -seconds is; traced runs alternate untraced and traced points, so they
// need two of each.
func minPoints(traced bool) int {
	if traced {
		return 4
	}
	return 3
}

// measure runs one workload: prepare, then whole points until the time is
// up.
func measure(c config) (*measurement, error) {
	w := workloadNamed(c.workload)(c.seed, c.tiny)
	tr := newTracer(c.workload, c.seed, c.traced)
	m := &measurement{cfg: c, fixed: map[string]float64{}}
	if err := safely(func() error { return w.prepare(tr, m.fixed) }); err != nil {
		return nil, fmt.Errorf("%s: prepare: %w", c.workload, err)
	}
	// After the minimum, a point starts only if a point of average length
	// still ends within the measurement time.
	start := time.Now()
	for i := 0; ; i++ {
		if i >= minPoints(c.traced) {
			if elapsed := time.Since(start).Seconds(); elapsed+elapsed/float64(i) > c.seconds {
				break
			}
		}
		s := sample{layers: map[string]float64{}, traced: c.traced && i%2 == 1}
		m.attempted++
		if err := runPoint(w, tr, i, &s); err != nil {
			m.errs = append(m.errs, fmt.Errorf("point %d: %w", i, err))
			continue
		}
		m.samples = append(m.samples, s)
	}
	if c.traced {
		if err := tr.write(c.outDir); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// safely runs fn, turning a panic into an error carrying its stack.
func safely(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v\n%s", r, debug.Stack())
		}
	}()
	return fn()
}

// runPoint measures one point: memory high-water mark reset, optional CPU
// profile, the workload's point, runtime counters, the workload's checks.
// The heap the previous point freed stays mapped: returning it to the
// kernel before every point made set-up and run times noticeably noisier
// (page faults), while the peak of identical back-to-back points still
// tracks one point's memory need.
func runPoint(w scenario, tr *tracer, i int, s *sample) error {
	runtime.GC()
	resetPeakRSS()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var prof bytes.Buffer
	if s.traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return fmt.Errorf("cpu profile: %w", err)
		}
	}
	tr.startPoint(i)
	err := safely(func() error { return w.point(tr, s) })
	if s.traced {
		pprof.StopCPUProfile()
	}
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&after)
	s.rssMB = peakRSSMiB()
	s.layers["runtime.gc_cycles"] = float64(after.NumGC - before.NumGC)
	s.layers["runtime.alloc_mb"] = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	if err := safely(func() error { return w.check(s) }); err != nil {
		return err
	}
	if s.traced {
		self, err := moduleSelfTime(prof.Bytes())
		if err != nil {
			return fmt.Errorf("cpu profile: %w", err)
		}
		for mod, sec := range self {
			s.layers[mod+".self_s"] = sec
		}
	}
	if s.simS <= 0 || s.runS <= 0 || s.setupS <= 0 || s.pointS <= 0 {
		return fmt.Errorf("degenerate timing: sim %g s in %g s, set-up %g s, point %g s",
			s.simS, s.runS, s.setupS, s.pointS)
	}
	return nil
}

// resetPeakRSS resets the process's VmHWM to its current RSS (Linux
// clear_refs mode 5), so each point reports its own peak.
func resetPeakRSS() {
	// Best effort: without clear_refs the peak covers the process so far.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMiB reads VmHWM from /proc/self/status.
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// quartiles returns the 25th, 50th and 75th percentiles of xs by linear
// interpolation between order statistics (the "exclusive" method Python's
// statistics.quantiles uses by default). Fewer than two values return that
// value three times.
func quartiles(xs []float64) (q1, med, q3 float64) {
	if len(xs) == 0 {
		return 0, 0, 0
	}
	v := append([]float64(nil), xs...)
	sort.Float64s(v)
	if len(v) == 1 {
		return v[0], v[0], v[0]
	}
	at := func(p float64) float64 {
		pos := p*float64(len(v)+1) - 1
		if pos <= 0 {
			return v[0]
		}
		if pos >= float64(len(v)-1) {
			return v[len(v)-1]
		}
		lo := math.Floor(pos)
		return v[int(lo)] + (pos-lo)*(v[int(lo)+1]-v[int(lo)])
	}
	return at(0.25), at(0.5), at(0.75)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// e2eValues returns one end-to-end metric's per-point values.
func (m *measurement) e2eValues(name string) []float64 {
	var out []float64
	for i := range m.samples {
		s := &m.samples[i]
		switch name {
		case "sim_speed":
			out = append(out, s.speed())
		case "setup_s":
			out = append(out, s.setupS)
		case "peak_rss_mb":
			out = append(out, s.rssMB)
		case "point_s":
			out = append(out, s.pointS)
		}
	}
	return out
}

// runSeconds returns orch.run_s of the traced or the untraced points.
func (m *measurement) runSeconds(traced bool) []float64 {
	var out []float64
	for _, s := range m.samples {
		if s.traced == traced {
			out = append(out, s.runS)
		}
	}
	return out
}

// layerValue is the median of one per-layer metric over the traced points
// (the mean for CPU-profile self times).
func (m *measurement) layerValue(name string) float64 {
	if name == "trace.overhead" {
		un := median(m.runSeconds(false))
		if un == 0 {
			return 0
		}
		return median(m.runSeconds(true)) / un
	}
	if v, ok := m.fixed[name]; ok {
		return v
	}
	var xs []float64
	for _, s := range m.samples {
		if s.traced {
			xs = append(xs, s.layers[name])
		}
	}
	if strings.HasSuffix(name, ".self_s") {
		// Profile samples come in 10 ms quanta, so a short point's self
		// times are mostly 0 or 0.01: the median of such values is biased,
		// their mean is not.
		return mean(xs)
	}
	return median(xs)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result builds the benchmark's JSON line.
func (m *measurement) result() result {
	r := result{
		Correct:   len(m.errs) == 0,
		Attempted: m.attempted,
		Failed:    len(m.errs),
		Metrics:   map[string]metricValue{},
	}
	if m.cfg.traced {
		for _, d := range perLayer {
			r.Metrics[d.name] = metricValue{m.layerValue(d.name), d.unit}
		}
		return r
	}
	for _, d := range endToEnd {
		r.Metrics[d.name] = metricValue{median(m.e2eValues(d.name)), d.unit}
	}
	return r
}

// summary is the human-readable account printed to standard error: each
// end-to-end metric's median, quartiles and point count, and every
// failure.
func (m *measurement) summary() string {
	var b strings.Builder
	mode := "untraced"
	if m.cfg.traced {
		mode = "traced"
	}
	fmt.Fprintf(&b, "%s seed=%d %s: %d points, %d failed\n",
		m.cfg.workload, m.cfg.seed, mode, m.attempted, len(m.errs))
	for _, d := range endToEnd {
		q1, med, q3 := quartiles(m.e2eValues(d.name))
		fmt.Fprintf(&b, "  %-12s median %.6g %s  q1 %.6g  q3 %.6g  n=%d\n",
			d.name, med, d.unit, q1, q3, len(m.samples))
	}
	if m.cfg.traced {
		fmt.Fprintf(&b, "  tracing overhead (traced/untraced orch.run_s): %.4f\n", m.layerValue("trace.overhead"))
	}
	for _, err := range m.errs {
		fmt.Fprintf(&b, "  FAILED %v\n", err)
	}
	return strings.TrimRight(b.String(), "\n")
}

// collectSetupGarbage runs a full collection between set-up and the
// executor call, so the run does not pay for collecting what the build
// left behind and does not share the cores with that collection. It
// returns the collection's wall time, which the point's time includes.
func collectSetupGarbage(tr *tracer) float64 {
	tr.begin("gc")
	runtime.GC()
	return tr.end()
}

// totalAlloc returns the bytes allocated on the heap so far.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}
