package main

import (
	"fmt"
	"hash/fnv"

	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/instantiate"
	"repro/internal/link"
	"repro/internal/netsim"
	"repro/internal/netsim/topogen"
	"repro/internal/netsim/workload"
	"repro/internal/orch"
	"repro/internal/profiler"
	"repro/internal/sim"
	"repro/internal/snap"
)

// fabricSize shapes a pod-split Clos fabric with open-loop UDP flows.
type fabricSize struct {
	spec  topogen.ClosSpec
	hosts int     // materialized hosts, spread over every pod
	rate  float64 // flow arrivals per second per host (open loop)
	dur   sim.Time
}

// closSpec is the datacenter Clos of the scale study: pods × 32 leaves × 8
// spines, 32 cores, 32 lazy host slots per leaf.
func closSpec(pods, leaves, spines, cores, hostsPerLeaf int) topogen.ClosSpec {
	return topogen.ClosSpec{
		Pods: pods, LeafPerPod: leaves, SpinePerPod: spines, Cores: cores,
		HostsPerLeaf: hostsPerLeaf,
		HostRate:     10 * sim.Gbps, LeafRate: 40 * sim.Gbps, CoreRate: 100 * sim.Gbps,
		LinkDelay: sim.Microsecond, Lazy: true,
	}
}

// fabricSizes: the full size is the 100-pod, 102,400-slot fabric with about
// a thousand hosts materialized; tiny is for the smoke test.
func fabricSizeFor(tiny bool) fabricSize {
	if tiny {
		return fabricSize{spec: closSpec(4, 4, 2, 4, 4), hosts: 32, rate: 20_000, dur: 100 * sim.Microsecond}
	}
	return fabricSize{spec: closSpec(100, 32, 8, 32, 32), hosts: 1000, rate: 20_000, dur: 1 * sim.Millisecond}
}

// flowSpec is the traffic every fabric workload runs: uniform destinations,
// bounded-Pareto sizes, Poisson arrivals in virtual time.
func flowSpec(seed uint64, rate float64) workload.Spec {
	return workload.Spec{
		Pattern: workload.Uniform{},
		Sizes:   workload.Pareto{Min: 1000, Alpha: 1.3, Max: 200_000},
		Arrival: workload.Open{FlowsPerSec: rate},
		Seed:    seed,
	}
}

// fabricInstance is one built fabric simulation.
type fabricInstance struct {
	meta  *topogen.ClosMeta
	built *netsim.Built
	eng   *workload.Engine
	s     *orch.Simulation
}

// buildFabric builds the Clos split into two partitions by pod, materializes
// the flow hosts, installs the flows and wires the partitions trunked. It
// records topo.build_s, workload.install_s and orch.wire_s in layers.
func buildFabric(sz fabricSize, seed uint64, tr *tracer, layers map[string]float64) *fabricInstance {
	fi := &fabricInstance{}
	tr.begin("topo.build")
	topo, meta := topogen.Clos(sz.spec)
	fi.built = topo.Build("fab", seed, meta.AssignByPod(2), nil)
	fi.meta = meta
	layers["topo.build_s"] = tr.end()

	tr.begin("workload.install")
	hosts := make([]*netsim.Host, 0, sz.hosts)
	for _, slot := range spreadSlots(meta, sz.hosts) {
		hosts = append(hosts, fi.built.MaterializeSlot(slot))
	}
	fi.eng = workload.Install(hosts, flowSpec(seed, sz.rate))
	layers["workload.install_s"] = tr.end()

	tr.begin("orch.wire")
	fi.s = orch.New()
	instantiate.WirePartitions(fi.s, topo, fi.built, true)
	layers["orch.wire_s"] = tr.end()
	return fi
}

// spreadSlots picks n host slots round-robin over pods, then leaves, then
// hosts, so traffic covers the whole fabric and both partitions.
func spreadSlots(m *topogen.ClosMeta, n int) []int {
	sp := m.Spec
	if n > m.TotalHosts() {
		n = m.TotalHosts()
	}
	slots := make([]int, n)
	for i := range slots {
		p := i % sp.Pods
		l := (i / sp.Pods) % sp.LeafPerPod
		h := (i / (sp.Pods * sp.LeafPerPod)) % sp.HostsPerLeaf
		slots[i] = m.HostSlots[p][l][h]
	}
	return slots
}

// stateDigest hashes the partitions' and the engine's explicit state.
func stateDigest(built *netsim.Built, eng *workload.Engine) (uint64, error) {
	var e snap.Encoder
	for _, p := range built.Parts {
		if err := p.SnapshotState(&e); err != nil {
			return 0, err
		}
	}
	if err := eng.SnapshotState(&e); err != nil {
		return 0, err
	}
	h := fnv.New64a()
	h.Write(e.Bytes())
	return h.Sum64(), nil
}

// fabricOutcome is what a fabric point is checked on.
type fabricOutcome struct {
	digest uint64
	events uint64
	flows  int
}

// fabricLayers records the network, frame-pool and workload counters of a
// finished fabric run.
func fabricLayers(built *netsim.Built, comps []core.Component, eng *workload.Engine,
	slots int, runS float64, layers map[string]float64) {
	var pkts, hits uint64
	routeBytes := 0
	for _, sw := range built.Switches {
		pkts += sw.RxPackets
		hits += sw.FlowCacheHits
		routeBytes += sw.RouteStateBytes()
	}
	layers["netsim.pkts"] = float64(pkts)
	if pkts > 0 {
		layers["netsim.ns_per_pkt"] = runS * 1e9 / float64(pkts)
		layers["netsim.flowcache_hit_ratio"] = float64(hits) / float64(pkts)
	}
	layers["netsim.route_b_per_host"] = float64(routeBytes) / float64(slots)
	frameLayers(comps, layers)
	if eng != nil {
		layers["workload.flows_done"] = float64(eng.Collect().FlowsCompleted)
	}
}

// frameLayers records the frame pools' allocation and reuse counts.
func frameLayers(comps []core.Component, layers map[string]float64) {
	var allocs, reuses uint64
	for _, c := range comps {
		if fp, ok := c.(core.FramePooler); ok {
			st := fp.FrameStats()
			allocs += st.Allocs
			reuses += st.Reuses
		}
	}
	layers["proto.frame_allocs"] = float64(allocs)
	if allocs+reuses > 0 {
		layers["proto.frame_reuse_ratio"] = float64(reuses) / float64(allocs+reuses)
	}
}

// eventLayers records the event count and per-event costs of a run whose
// runners processed perRunner events in runS seconds, allocating allocB
// bytes.
func eventLayers(perRunner []uint64, runS float64, allocB uint64, layers map[string]float64) uint64 {
	var total, max uint64
	for _, n := range perRunner {
		total += n
		if n > max {
			max = n
		}
	}
	layers["sim.events"] = float64(total)
	layers["orch.run_s"] = runS
	if total > 0 {
		layers["sim.events_per_s"] = float64(total) / runS
		layers["sim.ns_per_event"] = runS * 1e9 / float64(total)
		layers["runtime.alloc_b_per_event"] = float64(allocB) / float64(total)
		layers["orch.event_imbalance"] = float64(max) / (float64(total) / float64(len(perRunner)))
	}
	return total
}

// linkLayers records the synchronized channels' counters of a coupled run.
func linkLayers(g *link.Group, runS float64, layers map[string]float64) {
	var c link.Counters
	for _, r := range g.Runners {
		c.Add(r.Counters())
	}
	layers["link.wait_s"] = float64(c.WaitNanos) / 1e9
	layers["link.proc_s"] = float64(c.ProcNanos) / 1e9
	layers["link.wait_share"] = float64(c.WaitNanos) / 1e9 / (runS * float64(len(g.Runners)))
	layers["link.data_msgs"] = float64(c.TxData)
	layers["link.sync_msgs"] = float64(c.TxSync)
	if c.TxData > 0 {
		layers["link.sync_per_data"] = float64(c.TxSync) / float64(c.TxData)
	}
}

// fabric is the fabric-seq and fabric-par2 workload: the same build and
// flows, run by RunSequential or by two runner groups on the multi-core
// executor with the profiler attached.
type fabric struct {
	seed     uint64
	size     fabricSize
	parallel bool
	// ref is the sequential outcome every point must reproduce: the first
	// point's for fabric-seq, a reference sequential run's for fabric-par2.
	ref *fabricOutcome

	// The point being measured, for check.
	cur       *fabricInstance
	perRunner []uint64 // events per runner
	ticks     uint64   // profiler sampling events among them
	allocB    uint64   // heap bytes allocated by the executor call
}

func newFabric(seed uint64, tiny, parallel bool) *fabric {
	return &fabric{seed: seed, size: fabricSizeFor(tiny), parallel: parallel}
}

func (f *fabric) prepare(tr *tracer, _ map[string]float64) error {
	if !f.parallel {
		return nil
	}
	// fabric-par2 must reproduce the sequential digest: run it once.
	fi := buildFabric(f.size, f.seed, tr, map[string]float64{})
	out, err := fi.outcome(fi.s.RunSequential(f.size.dur).Processed())
	if err != nil {
		return err
	}
	f.ref = &out
	return nil
}

// outcome checks a finished instance for leaked frames and digests it.
func (fi *fabricInstance) outcome(events uint64) (fabricOutcome, error) {
	if n := fi.s.LiveFrames(); n != 0 {
		return fabricOutcome{}, fmt.Errorf("%d pooled frames still live after the run", n)
	}
	d, err := stateDigest(fi.built, fi.eng)
	if err != nil {
		return fabricOutcome{}, fmt.Errorf("state digest: %w", err)
	}
	return fabricOutcome{digest: d, events: events, flows: fi.eng.Collect().FlowsCompleted}, nil
}

func (f *fabric) point(tr *tracer, s *sample) error {
	f.cur = nil
	tr.begin("setup")
	fi := buildFabric(f.size, f.seed, tr, s.layers)
	var col *profiler.Collector
	if f.parallel {
		col = profiler.NewCollector()
		interval := f.size.dur / 20
		fi.s.PreRun = func(g *link.Group) { col.Attach(g, interval) }
	}
	s.setupS = tr.end()
	gc := collectSetupGarbage(tr)

	allocBefore := totalAlloc()
	tr.begin("run")
	tr.begin("orch.run")
	f.perRunner = f.perRunner[:0]
	f.ticks = 0
	if f.parallel {
		if err := fi.s.RunParallel(f.size.dur, decomp.PerComponent(fi.s.NumComponents())); err != nil {
			return fmt.Errorf("RunParallel: %w", err)
		}
		for _, r := range fi.s.Group.Runners {
			f.perRunner = append(f.perRunner, r.Scheduler().Processed())
		}
	} else {
		f.perRunner = append(f.perRunner, fi.s.RunSequential(f.size.dur).Processed())
	}
	s.runS = tr.end()
	f.allocB = totalAlloc() - allocBefore
	s.pointS = s.setupS + gc + s.runS
	if f.parallel {
		tr.begin("profiler.analyze")
		samples := col.Samples()
		a, err := profiler.Analyze(samples, 2, 2)
		if err != nil {
			return fmt.Errorf("profiler.Analyze: %w", err)
		}
		if g := profiler.BuildWTPG(a); len(g.Render()) == 0 {
			return fmt.Errorf("empty wait-time profile graph")
		}
		analyze := tr.end()
		s.pointS += analyze
		s.layers["profiler.analyze_s"] = analyze
		s.layers["profiler.samples"] = float64(len(samples))
		f.ticks = uint64(len(samples)) // one sampling event per sample
	}
	tr.end()
	s.simS = f.size.dur.Seconds()
	f.cur = fi
	return nil
}

// check compares the finished point with the references.
func (f *fabric) check(s *sample) error {
	fi := f.cur
	f.cur = nil // the next point's memory high-water mark must not include this one
	events := eventLayers(f.perRunner, s.runS, f.allocB, s.layers)
	fabricLayers(fi.built, fi.s.Components(), fi.eng, fi.meta.TotalHosts(), s.runS, s.layers)
	if f.parallel {
		linkLayers(fi.s.Group, s.runS, s.layers)
	}
	// The profiler's sampling events are the only events a parallel run
	// adds to the sequential ones.
	out, err := fi.outcome(events - f.ticks)
	if err != nil {
		return err
	}
	if out.flows == 0 {
		return fmt.Errorf("no flow completed")
	}
	if f.ref == nil {
		f.ref = &out
		return nil
	}
	if out != *f.ref {
		return fmt.Errorf("point (digest %#x, %d events, %d flows done) differs from the sequential reference (%#x, %d, %d)",
			out.digest, out.events, out.flows, f.ref.digest, f.ref.events, f.ref.flows)
	}
	return nil
}
