package netsim_test

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/netsim/topogen"
	"repro/internal/proto"
	"repro/internal/sim"
)

// TestRouteConcurrentReaders resolves every slot address on every switch
// of one built hierarchical fabric from two goroutines at once, as
// flow-level replicas do across partitions. Under the race detector it
// pins that lookups never write; without it, that they agree with a
// sequential pass.
func TestRouteConcurrentReaders(t *testing.T) {
	spec := topogen.ClosSpec{
		Pods: 4, LeafPerPod: 4, SpinePerPod: 2, Cores: 4, HostsPerLeaf: 4,
		HostRate: 10 * sim.Gbps, LeafRate: 40 * sim.Gbps, CoreRate: 100 * sim.Gbps,
		LinkDelay: sim.Microsecond, Lazy: true, DefaultUp: true,
	}
	topo, m := topogen.Clos(spec)
	built := topo.Build("clos", 1, m.AssignByPod(2), nil)
	ips := []proto.IP{proto.IP(0x0b000001)} // outside every aggregate
	for _, th := range topo.Hosts {
		ips = append(ips, th.IP)
	}
	type hop struct {
		out int
		ok  bool
	}
	resolve := func() []hop {
		var hops []hop
		for _, sw := range built.Switches {
			for _, ip := range ips {
				out, ok := sw.Route(ip)
				hops = append(hops, hop{out, ok})
			}
		}
		return hops
	}
	want := resolve()
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := resolve()
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("lookup %d: concurrent reader got %+v, sequential %+v", i, got[i], want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// BenchmarkSubstrateSwitchPrefixMiss measures forwarding that misses every
// flow cache on the 100-pod lazy Clos (102,400 slots): one UDP packet per
// op from a pod-0 host to an unmaterialized slot in another pod, resolved
// through the prefix tier at the source leaf, a spine, a core and the
// remote spine, then dropped by the remote leaf's blackhole. The ops cycle
// through every remote slot, so no switch sees an address again before its
// flow-cache slot has been overwritten, and no lookup hits.
func BenchmarkSubstrateSwitchPrefixMiss(b *testing.B) {
	spec := topogen.ClosSpec{
		Pods: 100, LeafPerPod: 32, SpinePerPod: 8, Cores: 32, HostsPerLeaf: 32,
		HostRate: 10 * sim.Gbps, LeafRate: 40 * sim.Gbps, CoreRate: 100 * sim.Gbps,
		LinkDelay: sim.Microsecond, Lazy: true,
	}
	topo, m := topogen.Clos(spec)
	built := topo.Build("clos", 1, nil, nil)
	src := built.MaterializeSlot(m.HostSlots[0][0][0])
	var dsts []proto.IP
	for p := 1; p < spec.Pods; p++ {
		for l := 0; l < spec.LeafPerPod; l++ {
			for i := 0; i < spec.HostsPerLeaf; i++ {
				dsts = append(dsts, m.HostIP(p, l, i))
			}
		}
	}
	s := sim.NewScheduler(0)
	built.Parts[0].Attach(core.Env{Sched: s, Src: 1})
	built.Parts[0].Start(sim.Time(1) << 62)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.SendUDP(dsts[i%len(dsts)], 1, 9, nil, 1400)
		s.Run()
	}
	b.StopTimer()
	var hits, dropped uint64
	for _, sw := range built.Switches {
		hits += sw.FlowCacheHits
		dropped += sw.NoRoute
	}
	if hits != 0 || dropped != uint64(b.N) {
		b.Fatalf("flow-cache hits = %d, blackholed = %d, want 0 and %d", hits, dropped, b.N)
	}
}
