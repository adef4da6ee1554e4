package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
)

// lastJSON runs the benchmark with args and decodes its last output line.
func lastJSON(t *testing.T, args ...string) result {
	t.Helper()
	var out, errb bytes.Buffer
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("perfbench %v: exit %d\n%s", args, code, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("perfbench %v: last line is not the result: %v", args, err)
	}
	if !r.Correct || r.Failed != 0 || r.Attempted < 3 {
		t.Fatalf("perfbench %v: correct=%v attempted=%d failed=%d\n%s",
			args, r.Correct, r.Attempted, r.Failed, errb.String())
	}
	return r
}

// checkMetrics requires exactly the named metrics, with their units.
func checkMetrics(t *testing.T, name string, got map[string]metricValue, want []metricDef) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics, want %d", name, len(got), len(want))
	}
	for _, d := range want {
		m, ok := got[d.name]
		if !ok {
			t.Errorf("%s: metric %s missing", name, d.name)
			continue
		}
		if m.Unit != d.unit {
			t.Errorf("%s: metric %s unit %q, want %q", name, d.name, m.Unit, d.unit)
		}
	}
}

// TestSmoke runs every workload at the tiny size, untraced and traced, and
// checks that every correctness check passes and every metric is present.
func TestSmoke(t *testing.T) {
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			args := []string{"-workload", name, "-seed", "7", "-seconds", "0", "-size", "tiny", "-out", t.TempDir()}
			e2e := lastJSON(t, append(args, "-trace", "0")...)
			checkMetrics(t, name, e2e.Metrics, endToEnd)
			for _, d := range endToEnd {
				if e2e.Metrics[d.name].Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, d.name, e2e.Metrics[d.name].Value)
				}
			}
			layers := lastJSON(t, append(args, "-trace", "1")...)
			checkMetrics(t, name, layers.Metrics, perLayer)
			for _, m := range []string{"sim.events", "orch.run_s", "orch.wire_s", "topo.build_s", "netsim.pkts", "trace.overhead"} {
				if layers.Metrics[m].Value <= 0 {
					t.Errorf("%s: per-layer metric %s = %v, want > 0", name, m, layers.Metrics[m].Value)
				}
			}
			spans, err := os.ReadDir(args[len(args)-1])
			if err != nil || len(spans) != 1 {
				t.Errorf("%s: traced run wrote %d span logs (%v), want 1", name, len(spans), err)
			}
		})
	}
}

// TestReportTiny runs the report at the tiny size: both seeds, every
// workload, tracing overhead and the executor comparison.
func TestReportTiny(t *testing.T) {
	var out bytes.Buffer
	if err := runReport(&out, 3, 0, true, t.TempDir()); err != nil {
		t.Fatalf("report: %v\n%s", err, out.String())
	}
	text := out.String()
	for _, want := range []string{"== seed 3 ==", "executor comparison", "tracing overhead fabric-warmsweep"} {
		if !strings.Contains(text, want) {
			t.Errorf("report lacks %q:\n%s", want, text)
		}
	}
	if n := strings.Count(text, "executor comparison"); n != 2 {
		t.Errorf("report has %d executor comparisons, want one per seed", n)
	}
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json's workload and
// metric lists identical to what the program runs and reports.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, workloadNames())
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program reports %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
}

func TestSimulatorModule(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/netsim.(*Switch).forward":                "netsim",
		"repro/internal/netsim/topogen.Clos":                     "netsim",
		"repro/internal/netsim/workload.(*hostState).receive":    "workload",
		"repro/internal/sim.(*Scheduler).Step":                   "sim",
		"repro/internal/apps/clocksync.(*Chrony).Run.func1":      "apps",
		"repro/internal/link.(*Runner).Run":                      "link",
		"repro/internal/stats.(*Latency).Add":                    "other",
		"repro/internal/orch.(*ExecutionPlan).execute.func1":     "orch",
		"repro/internal/netsim/flowsim.(*Engine).recompute[...]": "other",
	} {
		if got, ok := simulatorModule(fn); !ok || got != want {
			t.Errorf("simulatorModule(%q) = %q, %v; want %q", fn, got, ok, want)
		}
	}
	for _, fn := range []string{"runtime.mallocgc", "main.main", "repro/perfbench.run"} {
		if _, ok := simulatorModule(fn); ok {
			t.Errorf("simulatorModule(%q) claims a simulator module", fn)
		}
	}
}

// TestModuleSelfTime profiles a busy fabric simulation and checks that the
// attribution decodes the profile and credits the simulator's modules.
func TestModuleSelfTime(t *testing.T) {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	f := newFabric(1, true, false)
	// Long enough runs that the simulation, not the collection between
	// set-up and run, dominates the profile.
	f.size.dur = 10 * sim.Millisecond
	tr := newTracer("fabric-seq", 1, false)
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		s := sample{layers: map[string]float64{}}
		if err := f.point(tr, &s); err != nil {
			pprof.StopCPUProfile()
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()
	self, err := moduleSelfTime(prof.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, m := range selfModules {
		v, ok := self[m]
		if !ok {
			t.Errorf("module %s missing", m)
		}
		total += v
	}
	if total < 0.1 {
		t.Fatalf("profile attributes %.3f s of a 0.3 s busy loop", total)
	}
	if self["sim"]+self["netsim"] <= 0 {
		t.Errorf("no time credited to sim or netsim: %v", self)
	}
}
