package netsim

import (
	"slices"
	"unsafe"

	"repro/internal/proto"
)

// prefixTable is a flat longest-prefix-match table: the aggregate tier of
// every Switch and the coverage index of a hierarchical Topology build.
//
// Entries are kept sorted on write by (length descending, masked address
// ascending), one contiguous run per distinct length, so a lookup is one
// binary search per length, longest first — datacenter fabrics use two or
// three (leaf, pod, default). Each entry names its equal-cost candidates
// as an offset and count into one candidate pool in which identical sets
// are stored once: a leaf's remote pod aggregates all share its uplinks.
//
// Lookups only read, so several goroutines may resolve routes on a built
// fabric at once (flow-level replicas walk Switch.Route across partitions
// while the packet tier runs); inserts need exclusive access.
type prefixTable struct {
	lens []prefixLen  // distinct lengths present, longest first
	ents []prefixEnt  // sorted by (length desc, addr asc)
	pool []int32      // candidate ifaces, one copy per distinct set
	sets []candidates // the distinct sets in pool, for interning
}

// prefixLen is one length's run of entries: ents[start:end], where start
// is the previous run's end (0 for the first).
type prefixLen struct {
	bits uint8
	end  int32
}

// candidates locates one equal-cost set in the pool. An empty set is an
// explicit blackhole.
type candidates struct {
	off, n uint32
}

// prefixEnt is one installed prefix.
type prefixEnt struct {
	addr  proto.IP // masked to its run's length
	cands candidates
}

// insert installs cands for p, replacing the set of an existing entry for
// the same prefix.
func (t *prefixTable) insert(p proto.Prefix, cands []int) {
	set := t.intern(cands)
	li := t.lenIndex(p.Bits)
	lo := 0
	if li > 0 {
		lo = int(t.lens[li-1].end)
	}
	hi := int(t.lens[li].end)
	addr := p.Addr.Masked(p.Bits)
	i := hi // builds install in address order: usually an append to the run
	if hi > lo && t.ents[hi-1].addr >= addr {
		i = lo + searchAddr(t.ents[lo:hi], addr)
	}
	if i < hi && t.ents[i].addr == addr {
		t.ents[i].cands = set
		return
	}
	t.ents = slices.Insert(t.ents, i, prefixEnt{addr: addr, cands: set})
	for j := li; j < len(t.lens); j++ {
		t.lens[j].end++
	}
}

// lenIndex returns the index of bits's run in lens, adding an empty run
// at its longest-first position if the length is new.
func (t *prefixTable) lenIndex(bits uint8) int {
	at := len(t.lens)
	for i, l := range t.lens {
		if l.bits == bits {
			return i
		}
		if bits > l.bits {
			at = i
			break
		}
	}
	start := int32(0)
	if at > 0 {
		start = t.lens[at-1].end
	}
	t.lens = slices.Insert(t.lens, at, prefixLen{bits: bits, end: start})
	return at
}

// intern returns the pool location of cands, appending the set only if no
// identical one (same ifaces in the same order — the order the ECMP hash
// indexes) is stored yet. Sets are few per switch, and consecutive installs
// usually repeat the most recent one, so the scan runs newest first.
func (t *prefixTable) intern(cands []int) candidates {
	for i := len(t.sets) - 1; i >= 0; i-- {
		s := t.sets[i]
		if int(s.n) == len(cands) && samePool(t.pool[s.off:s.off+s.n], cands) {
			return s
		}
	}
	s := candidates{off: uint32(len(t.pool)), n: uint32(len(cands))}
	for _, c := range cands {
		t.pool = append(t.pool, int32(c))
	}
	t.sets = append(t.sets, s)
	return s
}

func samePool(pooled []int32, cands []int) bool {
	for i, c := range cands {
		if pooled[i] != int32(c) {
			return false
		}
	}
	return true
}

// match returns the candidate set of ip's longest matching prefix; ok is
// false when no prefix contains ip. An empty set with ok true is an
// explicit blackhole.
func (t *prefixTable) match(ip proto.IP) (cands []int32, ok bool) {
	lo := 0
	for _, l := range t.lens {
		hi := int(l.end)
		addr := ip.Masked(l.bits)
		if i := lo + searchAddr(t.ents[lo:hi], addr); i < hi && t.ents[i].addr == addr {
			c := t.ents[i].cands
			return t.pool[c.off : c.off+c.n], true
		}
		lo = hi
	}
	return nil, false
}

// searchAddr returns the index of the first entry in ents (one run, sorted
// by address) whose address is not below addr.
func searchAddr(ents []prefixEnt, addr proto.IP) int {
	i, j := 0, len(ents)
	for i < j {
		h := int(uint(i+j) >> 1)
		if ents[h].addr < addr {
			i = h + 1
		} else {
			j = h
		}
	}
	return i
}

// reserve grows the entry array to hold n more prefixes without
// reallocating.
func (t *prefixTable) reserve(n int) { t.ents = slices.Grow(t.ents, n) }

// bytes returns the heap bytes the table holds: the capacity of each
// backing array, growth slack included.
func (t *prefixTable) bytes() int {
	return cap(t.lens)*int(unsafe.Sizeof(prefixLen{})) +
		cap(t.ents)*int(unsafe.Sizeof(prefixEnt{})) +
		cap(t.pool)*int(unsafe.Sizeof(int32(0))) +
		cap(t.sets)*int(unsafe.Sizeof(candidates{}))
}
