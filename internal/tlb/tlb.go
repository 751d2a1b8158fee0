// Package tlb models a translation lookaside buffer caching flattened 2D
// translations (gVA page → host frame). Its two invalidation primitives
// mirror the x86 instruction classes the paper counts in Table 1:
//
//   - FlushSingle: invlpg/invvpid/invpcid — removes the entry for one gVA.
//     Available only to software that knows the gVA, i.e. the guest.
//   - FlushAll: invept — destroys every entry derived from an EPT. This is
//     the only tool a hypervisor has after clearing EPT A/D bits, because
//     EPT entries carry no gVA to invalidate selectively.
//
// The performance coupling is causal in the model: a flushed entry forces
// the next access to that page through a full 2D page-table walk, so flush
// counts translate into slowdown exactly as in §2.3.1.
//
// Every guest access is priced through Lookup, so the layout is built for
// it. Each way is one packed word, tag above host frame, and the ways of a
// set fill exactly one 64-byte cache line. The range invariant that makes
// packing safe: Insert accepts only gvpns below MaxGVPN (a 47-bit guest
// virtual address space, the x86-64 user half) and host frames up to
// MaxHPFN (40 bits), and panics on anything else. Lookup of a gvpn outside
// the range always misses.
package tlb

import "fmt"

// Geometry: 16384 entries, 8-way. A hardware STLB has ~2K entries, but
// guests back large regions with 2 MiB huge pages; the widened reach
// stands in for THP coverage at the simulator's 4 KiB granularity.
const (
	setBits = 11
	sets    = 1 << setBits
	setMask = sets - 1
	ways    = 8 // 8 words × 8 bytes = one 64-byte line per set

	hpfnBits = 40
	// MaxHPFN is the largest host frame number a way can hold.
	MaxHPFN = 1<<hpfnBits - 1
	// MaxGVPN bounds the guest page numbers Insert accepts (exclusive):
	// the tag (gvpn>>setBits)+1 must fit the 24 bits above the frame.
	MaxGVPN = (1<<(64-hpfnBits) - 1) << setBits
)

// tagOf returns gvpn's packed tag. The +1 keeps every valid tag nonzero,
// so a zero word is an empty way without a separate valid bit.
func tagOf(gvpn uint64) uint64 { return (gvpn>>setBits + 1) << hpfnBits }

// Stats holds instruction and traffic counters. Single/Full count flush
// *instructions issued* (the unit of Table 1), independent of whether a
// matching entry was cached.
type Stats struct {
	Lookups       uint64
	Hits          uint64
	Misses        uint64
	SingleFlushes uint64
	FullFlushes   uint64
	Evictions     uint64
	Fills         uint64
}

// HitRate returns hits/lookups, or 0 when idle.
func (s Stats) HitRate() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Lookups)
}

// TLB is a set-associative translation cache with round-robin replacement
// (deterministic and close enough to LRU for miss-rate shaping). Not safe
// for concurrent use; the simulation is single-threaded.
type TLB struct {
	sets  [sets][ways]uint64 // tag<<hpfnBits | hpfn; 0 = empty way
	next  [sets]uint8        // per-set round-robin replacement cursor
	stats Stats              // Lookups is derived as Hits+Misses
}

// NewDefault returns an empty TLB.
func NewDefault() *TLB { return &TLB{} }

// Stats returns a copy of the counters.
func (t *TLB) Stats() Stats {
	s := t.stats
	s.Lookups = s.Hits + s.Misses
	return s
}

// ResetStats zeroes the counters without touching cached entries.
func (t *TLB) ResetStats() { t.stats = Stats{} }

// Lookup returns the cached host frame for gvpn. A hit refreshes nothing.
// Tags are unique within a set, so the scan keeps the one matching word
// without branching on which way holds it.
//
//demeter:hotpath
func (t *TLB) Lookup(gvpn uint64) (hpfn uint64, ok bool) {
	var hit uint64
	if gvpn < MaxGVPN {
		tag := tagOf(gvpn)
		for _, w := range &t.sets[gvpn&setMask] {
			if w&^MaxHPFN == tag {
				hit = w
			}
		}
	}
	if hit == 0 {
		t.stats.Misses++
		return 0, false
	}
	t.stats.Hits++
	return hit & MaxHPFN, true
}

// Insert caches gvpn→hpfn after a walk, evicting round-robin within the
// set when full. Inserting an existing gvpn updates it in place. A gvpn
// or hpfn outside the packed range panics.
//
//demeter:hotpath
func (t *TLB) Insert(gvpn, hpfn uint64) {
	if gvpn >= MaxGVPN || hpfn > MaxHPFN {
		outOfRange(gvpn, hpfn)
	}
	tag := tagOf(gvpn)
	si := gvpn & setMask
	set := &t.sets[si]
	free := -1
	for i, w := range set {
		if w&^MaxHPFN == tag {
			set[i] = tag | hpfn
			return
		}
		if w == 0 && free < 0 {
			free = i
		}
	}
	t.stats.Fills++
	if free >= 0 {
		set[free] = tag | hpfn
		return
	}
	v := t.next[si]
	t.next[si] = (v + 1) % ways
	set[v] = tag | hpfn
	t.stats.Evictions++
}

// outOfRange reports an Insert that breaks the packing invariant.
//
//demeter:coldpath
func outOfRange(gvpn, hpfn uint64) {
	panic(fmt.Sprintf("tlb: translation %#x → %#x outside the packed range (gvpn < %#x, hpfn ≤ %#x)",
		gvpn, hpfn, uint64(MaxGVPN), uint64(MaxHPFN)))
}

// FlushSingle issues one single-address invalidation for gvpn.
func (t *TLB) FlushSingle(gvpn uint64) {
	t.stats.SingleFlushes++
	if gvpn >= MaxGVPN {
		return
	}
	tag := tagOf(gvpn)
	set := &t.sets[gvpn&setMask]
	for i, w := range set {
		if w&^MaxHPFN == tag {
			set[i] = 0
			return
		}
	}
}

// FlushAll issues a full invalidation (invept), destroying all entries and
// resetting the per-set round-robin cursors, so post-flush eviction
// victims cannot depend on pre-flush history.
func (t *TLB) FlushAll() {
	t.stats.FullFlushes++
	clear(t.sets[:])
	clear(t.next[:])
}

// Scan visits every valid entry in set, then way, order (audit/diagnostic
// use); returning false from fn stops the walk.
func (t *TLB) Scan(fn func(gvpn, hpfn uint64) bool) {
	for si := range t.sets {
		for _, w := range &t.sets[si] {
			if w != 0 && !fn((w>>hpfnBits-1)<<setBits|uint64(si), w&MaxHPFN) {
				return
			}
		}
	}
}

// Occupied returns the number of valid entries (test/diagnostic use).
func (t *TLB) Occupied() int {
	n := 0
	t.Scan(func(uint64, uint64) bool { n++; return true })
	return n
}
