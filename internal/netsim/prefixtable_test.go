package netsim

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/proto"
	"repro/internal/sim"
)

// refRoutes is the naive reference the switch's route tables are checked
// against: a per-IP map, then a linear longest-match scan over every
// prefix install in order, a later install of the same prefix winning.
type refRoutes struct {
	perIP    map[proto.IP]int
	installs []refInstall
}

type refInstall struct {
	p    proto.Prefix
	outs []int
}

func (r *refRoutes) route(ip proto.IP) (int, bool) {
	if out, ok := r.perIP[ip]; ok {
		return out, true
	}
	best := -1
	for i, in := range r.installs {
		if in.p.Contains(ip) && (best < 0 || in.p.Bits >= r.installs[best].p.Bits) {
			best = i
		}
	}
	if best < 0 || len(r.installs[best].outs) == 0 {
		return 0, false
	}
	outs := r.installs[best].outs
	return outs[ecmpHash(ip)%uint64(len(outs))], true
}

func (r *refRoutes) distinctPrefixes() int {
	seen := map[proto.Prefix]bool{}
	for _, in := range r.installs {
		seen[in.p] = true
	}
	return len(seen)
}

// TestPrefixTableMatchesReference drives random per-IP and prefix installs
// — overlapping lengths, /0 defaults, /32 host prefixes, blackholes,
// re-installs of the same prefix, unnormalized addresses — into a switch
// and checks every lookup, through Route and through the flow cache,
// against the reference.
func TestPrefixTableMatchesReference(t *testing.T) {
	const ifaces = 6
	lens := []int{0, 8, 20, 22, 24, 26, 28, 30, 32}
	for seed := int64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			n := New("net", 1)
			sw := n.AddSwitch("sw")
			for i := 0; i < ifaces; i++ {
				h := n.AddHost(fmt.Sprintf("h%d", i), proto.HostIP(uint32(i+1)))
				n.ConnectHostSwitch(h, sw, 10*sim.Gbps, sim.Microsecond)
			}
			ref := &refRoutes{perIP: map[proto.IP]int{}}
			// Addresses cluster in 10.0.0.0/20 so prefixes overlap often;
			// a few stray outside it to exercise the /0 and /8 entries.
			randIP := func() proto.IP {
				if rng.Intn(8) == 0 {
					return proto.IP(rng.Uint32())
				}
				return proto.IP(0x0a000000 | rng.Uint32()&0xfff)
			}
			randOuts := func() []int {
				if rng.Intn(6) == 0 {
					return nil // blackhole
				}
				outs := make([]int, 1+rng.Intn(4))
				for i := range outs {
					outs[i] = rng.Intn(ifaces)
				}
				return outs
			}
			check := func(op int) {
				t.Helper()
				for q := 0; q < 24; q++ {
					ip := randIP()
					if len(ref.installs) > 0 && q%2 == 0 {
						// Aim inside an installed prefix.
						p := ref.installs[rng.Intn(len(ref.installs))].p
						ip = p.Addr | proto.IP(rng.Uint32())&^p.Mask()
					}
					wantOut, wantOK := ref.route(ip)
					gotOut, gotOK := sw.Route(ip)
					if gotOK != wantOK || (wantOK && gotOut != wantOut) {
						t.Fatalf("op %d: Route(%v) = %d,%v, want %d,%v", op, ip, gotOut, gotOK, wantOut, wantOK)
					}
					gotOut, gotOK = sw.lookup(ip)
					if gotOK != wantOK || (wantOK && gotOut != wantOut) {
						t.Fatalf("op %d: cached lookup(%v) = %d,%v, want %d,%v", op, ip, gotOut, gotOK, wantOut, wantOK)
					}
				}
				if _, prefix := sw.RouteEntries(); prefix != ref.distinctPrefixes() {
					t.Fatalf("op %d: %d prefix entries, want %d", op, prefix, ref.distinctPrefixes())
				}
			}
			for op := 0; op < 300; op++ {
				switch r := rng.Intn(10); {
				case r < 2:
					ip := randIP()
					out := rng.Intn(ifaces)
					sw.SetRoute(ip, out)
					ref.perIP[ip] = out
				default:
					var p proto.Prefix
					if r < 4 && len(ref.installs) > 0 {
						p = ref.installs[rng.Intn(len(ref.installs))].p // re-install
					} else {
						p = proto.MakePrefix(randIP(), lens[rng.Intn(len(lens))])
					}
					outs := randOuts()
					// SetPrefixRoute must mask the host bits itself.
					raw := proto.Prefix{Addr: p.Addr | proto.IP(rng.Uint32())&^p.Mask(), Bits: p.Bits}
					sw.lookup(randIP()) // leave something in the flow cache
					sw.SetPrefixRoute(raw, outs...)
					if sw.fcache != [flowCacheSize]flowEntry{} {
						t.Fatalf("op %d: SetPrefixRoute(%v) left the flow cache populated", op, raw)
					}
					ref.installs = append(ref.installs, refInstall{p: p, outs: outs})
				}
				check(op)
			}
		})
	}
}
