package main

import (
	"fmt"

	"repro/internal/apps/clocksync"
	"repro/internal/apps/crdb"
	"repro/internal/apps/kv"
	"repro/internal/hostsim"
	"repro/internal/instantiate"
	"repro/internal/netsim"
	"repro/internal/nicsim"
	"repro/internal/orch"
	"repro/internal/proto"
	"repro/internal/sim"
)

// The clock-synchronization case study (paper §4.3) in PTP mode: a
// three-tier datacenter with transparent-clock switches and protocol-level
// bulk background traffic, plus seven detailed hosts (qemu-tier host +
// NIC) running PTP and chrony, a commit-wait database and closed-loop kv
// clients with one request outstanding. Run sequentially.

type clockSyncSize struct {
	hostsPerRack int
	dur          sim.Time
}

func clockSyncSizeFor(tiny bool) clockSyncSize {
	if tiny {
		return clockSyncSize{hostsPerRack: 3, dur: 400 * sim.Millisecond}
	}
	return clockSyncSize{hostsPerRack: 4, dur: 600 * sim.Millisecond}
}

// bulkApp is the background load: constant-rate virtual-payload UDP toward
// a fixed partner, started at a random phase.
type bulkApp struct {
	dst  proto.IP
	gap  sim.Time
	size int
}

func (b *bulkApp) Start(h *netsim.Host) {
	h.After(sim.Time(h.Rand().Int63n(int64(b.gap))), func() { b.tick(h) })
}

func (b *bulkApp) tick(h *netsim.Host) {
	h.SendUDP(b.dst, proto.PortBulk, proto.PortBulk, nil, b.size)
	h.After(b.gap, func() { b.tick(h) })
}

// clockSyncInstance is one built case-study simulation.
type clockSyncInstance struct {
	s       *orch.Simulation
	built   *netsim.Built
	chrony  *clocksync.Chrony // the leader replica's
	clients []*kv.Client
	slots   int
}

// buildClockSync builds the case study, recording topo.build_s,
// workload.install_s (background pairs, detailed hosts and their apps) and
// orch.wire_s.
func buildClockSync(sz clockSyncSize, seed uint64, tr *tracer, layers map[string]float64) *clockSyncInstance {
	ci := &clockSyncInstance{}
	tr.begin("topo.build")
	spec := netsim.DefaultThreeTier
	spec.HostsPerRack = sz.hostsPerRack
	topo, meta := netsim.ThreeTier(spec)
	for i := range topo.Switches {
		topo.Switches[i].TC = true // PTP transparent clocks everywhere
	}
	// Seven detailed machines: two replicas, the clock server, two write
	// clients in the leader's rack, two read-mostly clients elsewhere.
	slots := []int{
		meta.HostsByRack[0][0][0], meta.HostsByRack[0][1][0], meta.HostsByRack[0][2][0],
		meta.HostsByRack[0][0][1], meta.HostsByRack[0][0][2],
		meta.HostsByRack[2][0][0], meta.HostsByRack[3][0][0],
	}
	for _, s := range slots {
		topo.MakeExternal(s)
	}
	ci.built = topo.Build("net", seed, nil, nil)
	ci.slots = len(topo.Hosts)
	net := ci.built.Parts[0]
	layers["topo.build_s"] = tr.end()

	tr.begin("workload.install")
	// Background bulk pairs load the aggregation/core layer to ~30%.
	var bg []*netsim.Host
	for _, h := range ci.built.Hosts {
		if h != nil {
			bg = append(bg, h)
		}
	}
	perm := sim.NewRand(seed ^ 0xb6).Perm(len(bg))
	pairs := len(bg) / 2
	pairRate := 0.3 * float64(spec.CoreRate) * float64(spec.Aggs) / float64(pairs)
	if max := 0.3 * float64(spec.HostRate); pairRate > max {
		pairRate = max
	}
	const pktSize = 8900 // jumbo frames
	gap := sim.FromSeconds(pktSize * 8 / pairRate)
	for i := 0; i < pairs; i++ {
		a, c := bg[perm[2*i]], bg[perm[2*i+1]]
		a.SetApp(&bulkApp{dst: c.IP(), gap: gap, size: pktSize})
		c.BindUDP(proto.PortBulk, func(proto.IP, uint16, []byte, int) {})
	}

	ci.s = orch.New()
	ci.s.Add(net)
	var wire float64
	mkHost := func(slot int, name string, seed uint64, drift float64) *instantiate.DetailedHost {
		np := nicsim.DefaultParams()
		if drift != 0 {
			np.PHCDriftPPM = drift + 5
		}
		dh := instantiate.NewDetailedHost(name, topo.Hosts[slot].IP, hostsim.QemuParams(), np, seed)
		if drift != 0 {
			dh.Host.Clock.Osc = hostsim.Oscillator{
				Offset:   sim.Time(seed%7) * sim.Millisecond,
				DriftPPM: drift, WanderPPM: 1,
				WanderPeriod: 10 * sim.Second, Phase: float64(seed),
			}
		}
		tr.begin("orch.wire")
		dh.Wire(ci.s, net, ci.built.Exts[slot])
		wire += tr.end()
		return dh
	}
	leader := mkHost(slots[0], "replica0", seed+1, 32)
	follower := mkHost(slots[1], "replica1", seed+2, -21)
	clock := mkHost(slots[2], "clocksrv", seed+3, 0) // perfect reference oscillator
	var clients []*instantiate.DetailedHost
	for i := 0; i < 4; i++ {
		clients = append(clients, mkHost(slots[3+i], fmt.Sprintf("client%d", i),
			seed+uint64(4+i), []float64{18, -9, 44, 27}[i]))
	}

	// PTP: hardware-timestamping slaves feed chrony on both replicas.
	syncInterval := 50 * sim.Millisecond
	mkChrony := func(dh *instantiate.DetailedHost) *clocksync.Chrony {
		ch := clocksync.NewChrony()
		dh.Host.AddApp(hostsim.AppFunc(ch.Run))
		slave := &clocksync.PTPSlave{Master: clock.Host.LocalIP(), NIC: dh.NIC}
		ref := &clocksync.PHCRefClock{Slave: slave, NIC: dh.NIC, Poll: syncInterval}
		ref.OnMeasurement = ch.OnMeasurement
		dh.Host.AddApp(hostsim.AppFunc(slave.Run))
		dh.Host.AddApp(hostsim.AppFunc(ref.Run))
		return ch
	}
	ci.chrony = mkChrony(leader)
	mkChrony(follower)
	gm := &clocksync.PTPMaster{
		Slaves:   []proto.IP{leader.Host.LocalIP(), follower.Host.LocalIP()},
		Interval: syncInterval,
	}
	clock.Host.AddApp(hostsim.AppFunc(gm.Run))

	// Commit-wait database: the leader's commit wait is its chrony bound.
	lp := crdb.DefaultParams()
	lp.Follower = follower.Host.LocalIP()
	lp.Bound = ci.chrony.Bound
	leaderSrv := crdb.NewServer(lp)
	leader.Host.AddApp(hostsim.AppFunc(func(h *hostsim.Host) { leaderSrv.Run(h) }))
	followerSrv := crdb.NewServer(crdb.DefaultParams())
	follower.Host.AddApp(hostsim.AppFunc(func(h *hostsim.Host) { followerSrv.Run(h) }))

	// Two write clients and two social-mix clients, closed loop, one
	// request outstanding each.
	for i, c := range clients {
		cp := crdb.SocialClientParams(uint32(i), leader.Host.LocalIP())
		cp.WarmUp = sz.dur / 4
		cp.Outstanding = 1
		if i < 2 {
			cp.WriteFrac = 1
		}
		cli := kv.NewClient(cp)
		ci.clients = append(ci.clients, cli)
		c.Host.AddApp(hostsim.AppFunc(func(h *hostsim.Host) { cli.Run(h) }))
	}
	layers["workload.install_s"] = tr.end() - wire
	layers["orch.wire_s"] = wire
	return ci
}

// clockSyncOutcome is what a case-study point is checked on.
type clockSyncOutcome struct {
	events uint64
	bound  sim.Time // mean chrony bound on the leader
	writes int
}

type clockSync struct {
	seed uint64
	size clockSyncSize
	ref  *clockSyncOutcome

	// The point being measured, for check.
	cur    *clockSyncInstance
	events uint64
	allocB uint64
}

func newClockSync(seed uint64, tiny bool) *clockSync {
	return &clockSync{seed: seed, size: clockSyncSizeFor(tiny)}
}

func (c *clockSync) prepare(*tracer, map[string]float64) error { return nil }

func (c *clockSync) point(tr *tracer, s *sample) error {
	c.cur = nil
	tr.begin("setup")
	ci := buildClockSync(c.size, c.seed, tr, s.layers)
	s.setupS = tr.end()
	gc := collectSetupGarbage(tr)

	allocBefore := totalAlloc()
	tr.begin("run")
	tr.begin("orch.run")
	c.events = ci.s.RunSequential(c.size.dur).Processed()
	s.runS = tr.end()
	tr.end()
	c.allocB = totalAlloc() - allocBefore
	s.simS = c.size.dur.Seconds()
	s.pointS = s.setupS + gc + s.runS
	c.cur = ci
	return nil
}

// check compares the finished point's outputs with the first point's.
func (c *clockSync) check(s *sample) error {
	ci := c.cur
	c.cur = nil
	eventLayers([]uint64{c.events}, s.runS, c.allocB, s.layers)
	fabricLayers(ci.built, ci.s.Components(), nil, ci.slots, s.runS, s.layers)
	if n := ci.s.LiveFrames(); n != 0 {
		return fmt.Errorf("%d pooled frames still live after the run", n)
	}
	out := clockSyncOutcome{events: c.events, bound: ci.chrony.Bounds.Mean()}
	for _, cli := range ci.clients {
		out.writes += cli.WriteLat.Count()
	}
	if out.writes == 0 || out.bound <= 0 {
		return fmt.Errorf("degenerate case study: %d writes, PTP bound %v", out.writes, out.bound)
	}
	if c.ref == nil {
		c.ref = &out
		return nil
	}
	if out != *c.ref {
		return fmt.Errorf("outputs (events %d, PTP bound %v, writes %d) differ from the reference (%d, %v, %d)",
			out.events, out.bound, out.writes, c.ref.events, c.ref.bound, c.ref.writes)
	}
	return nil
}
