package netsim

import (
	"fmt"

	"repro/internal/proto"
	"repro/internal/sim"
)

// Dataplane is the programmable-switch hook: it sees every frame before
// forwarding and may consume it, mutate it, or inject new frames (via
// Switch.Inject). The NetCache and Pegasus in-network dataplanes and test
// fixtures implement it.
type Dataplane interface {
	// Process handles a frame arriving on in. Returning false consumes the
	// frame (the switch does not forward it).
	Process(sw *Switch, in *Iface, f *proto.Frame) (forward bool)
}

// flowCacheSize is the number of direct-mapped flow-cache entries per
// switch. Power of two; sized for the handful of hot destinations a switch
// port typically serves between topology changes.
const flowCacheSize = 8

// flowEntry is one flow-cache slot: the last next-hop resolved for ip.
type flowEntry struct {
	ip  proto.IP
	out int32
	ok  bool
}

// Switch is an output-queued IP switch with static routes (a per-IP map
// plus a longest-prefix aggregate tier), an optional programmable
// dataplane, and optional PTP transparent-clock support.
type Switch struct {
	net    *Network
	name   string
	ifaces []*Iface
	routes map[proto.IP]int

	// lpm is the aggregate tier under the per-IP map. An empty candidate
	// set is an explicit blackhole — the match consumes the packet as
	// unroutable rather than letting a shorter prefix bounce it back into
	// the fabric.
	lpm prefixTable

	// fcache short-circuits the route tables on the forwarding hot path. It
	// is a pure cache over the per-IP map and prefix tier — lookups through
	// it are behavior-identical — and every topology or route mutation
	// clears it.
	fcache [flowCacheSize]flowEntry

	// Dataplane, when non-nil, processes every received frame.
	Dataplane Dataplane

	// TransparentClock makes the switch add per-packet residence time to
	// the correction field of PTP event messages, as IEEE 1588 transparent
	// clocks do. The clock-synchronization case study extends switches
	// with this, mirroring the paper's ns-3 extension.
	TransparentClock bool

	// RxPackets counts frames entering the switch.
	RxPackets uint64
	// NoRoute counts frames dropped for want of a route.
	NoRoute uint64
	// FlowCacheHits counts forwarding decisions served from fcache.
	FlowCacheHits uint64
}

// Name returns the switch name.
func (s *Switch) Name() string { return s.name }

func (s *Switch) nodeName() string { return s.name }

// Network returns the owning network.
func (s *Switch) Network() *Network { return s.net }

// Ifaces returns the switch's interfaces in attachment order.
func (s *Switch) Ifaces() []*Iface { return s.ifaces }

// SetRoute installs iface index out as the next hop for ip.
func (s *Switch) SetRoute(ip proto.IP, out int) {
	if out < 0 || out >= len(s.ifaces) {
		panic(fmt.Sprintf("netsim: %s: route to %v via invalid iface %d", s.name, ip, out))
	}
	s.routes[ip] = out
	s.invalidateFlowCache()
}

// SetPrefixRoute installs equal-cost next-hop candidates for a CIDR
// aggregate. A packet whose longest match is this prefix picks one
// candidate by the deterministic per-destination hash (static ECMP, the
// same rule Topology.Build applies to per-IP routes). No candidates means
// an explicit blackhole: addresses inside the prefix with no longer match
// are dropped here instead of looping through shorter aggregates.
func (s *Switch) SetPrefixRoute(p proto.Prefix, outs ...int) {
	for _, out := range outs {
		if out < 0 || out >= len(s.ifaces) {
			panic(fmt.Sprintf("netsim: %s: prefix route %v via invalid iface %d", s.name, p, out))
		}
	}
	s.lpm.insert(p, outs)
	s.invalidateFlowCache()
}

// ecmpHash is the per-destination spreading hash shared by every equal-cost
// choice in the simulator (topology build, prefix tier, ComputeRoutes), so
// any of them installed for the same candidate set forwards identically.
func ecmpHash(ip proto.IP) uint64 {
	return uint64(ip) * 0x9e3779b97f4a7c15 >> 32
}

// Route returns the next-hop interface index ip resolves to — per-IP map
// first, then the longest-prefix tier — without touching the flow cache or
// hit counters. The second result is false for unroutable addresses and
// blackholed aggregates.
func (s *Switch) Route(ip proto.IP) (int, bool) {
	if out, ok := s.routes[ip]; ok {
		return out, true
	}
	return s.lookupPrefix(ip)
}

// lookupPrefix resolves ip through the aggregate tier, spreading the
// longest match's equal-cost candidates with the per-destination hash.
func (s *Switch) lookupPrefix(ip proto.IP) (int, bool) {
	cands, _ := s.lpm.match(ip)
	if len(cands) == 0 {
		return 0, false // no match, or an explicit blackhole
	}
	return int(cands[ecmpHash(ip)%uint64(len(cands))]), true
}

// lookup resolves the next hop for ip through the flow cache, falling back
// to (and refilling from) the per-IP map and prefix tier on a miss.
func (s *Switch) lookup(ip proto.IP) (int, bool) {
	e := &s.fcache[uint32(ip)&(flowCacheSize-1)]
	if e.ok && e.ip == ip {
		s.FlowCacheHits++
		return int(e.out), true
	}
	out, ok := s.routes[ip]
	if !ok {
		out, ok = s.lookupPrefix(ip)
	}
	if ok {
		*e = flowEntry{ip: ip, out: int32(out), ok: true}
	}
	return out, ok
}

// RouteEntries returns the resident routing-table sizes: exact per-IP
// entries and aggregate (prefix) entries. The scale tests assert the
// aggregate build keeps perIP+prefix O(pods), not O(hosts).
func (s *Switch) RouteEntries() (perIP, prefix int) {
	return len(s.routes), len(s.lpm.ents)
}

// RouteStateBytes returns the bytes of routing state this switch holds:
// the aggregate tier's entries and candidate pool as allocated, plus
// map-entry overhead for per-IP routes (an estimate of Go's map layout).
// The scale benchmarks track it per host across revisions.
func (s *Switch) RouteStateBytes() int {
	const mapEntry = 16 // ~IP key + int value, amortized bucket overhead
	return len(s.routes)*mapEntry + s.lpm.bytes()
}

// invalidateFlowCache clears every cached forwarding decision. Called on any
// mutation that could change a next hop: SetRoute and interface additions.
func (s *Switch) invalidateFlowCache() {
	s.fcache = [flowCacheSize]flowEntry{}
}

// receive implements node. The switch owns the frame: a dataplane that
// consumes it (Process returning false) must not retain it — the switch
// releases it on return.
func (s *Switch) receive(in *Iface, f *proto.Frame) {
	s.RxPackets++
	if s.Dataplane != nil {
		if !s.Dataplane.Process(s, in, f) {
			f.Release()
			return
		}
	}
	s.forward(in, f)
}

// forward routes f out of the switch, applying the pipeline latency. The
// pipeline hop is a typed delivery event onto the egress interface's enqueue
// sink — no closure, no Timer.
func (s *Switch) forward(in *Iface, f *proto.Frame) {
	out, ok := s.lookup(f.IP.Dst)
	if !ok {
		s.NoRoute++
		f.Release()
		return
	}
	env := s.net.env
	env.PostDelivery(env.Now()+s.net.SwitchLatency, &s.ifaces[out].enqSink, f)
}

// Inject sends a locally generated frame out the route for its destination,
// used by dataplanes to emit replies (e.g., NetCache cache hits).
func (s *Switch) Inject(f *proto.Frame) {
	s.forward(nil, f)
}

// addResidence implements the transparent clock: PTP event messages get the
// switch residence time (pipeline + queueing + serialization start skew)
// added to their correction field.
func (s *Switch) addResidence(f *proto.Frame, residence sim.Time) {
	if f.IP.Proto != proto.IPProtoUDP || f.UDP.DstPort != proto.PortPTPEvent {
		return
	}
	m, err := proto.ParsePTP(f.Payload)
	if err != nil {
		return
	}
	m.Correction += residence
	f.Payload = proto.AppendPTP(f.Payload[:0], m)
}
