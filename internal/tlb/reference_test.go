package tlb

import (
	"fmt"
	"testing"

	"demeter/internal/simrand"
)

// refTLB is the naive model the packed TLB is diffed against: a slice of
// unpacked ways per set and a round-robin cursor, with the same
// replacement rule (first empty way, else the cursor's victim).
type refTLB struct {
	sets  [][]refWay
	next  []int
	stats Stats
}

type refWay struct {
	gvpn, hpfn uint64
	valid      bool
}

func newRef() *refTLB {
	r := &refTLB{sets: make([][]refWay, sets), next: make([]int, sets)}
	for i := range r.sets {
		r.sets[i] = make([]refWay, ways)
	}
	return r
}

func (r *refTLB) set(gvpn uint64) []refWay { return r.sets[gvpn%sets] }

func (r *refTLB) lookup(gvpn uint64) (uint64, bool) {
	r.stats.Lookups++
	for _, w := range r.set(gvpn) {
		if w.valid && w.gvpn == gvpn {
			r.stats.Hits++
			return w.hpfn, true
		}
	}
	r.stats.Misses++
	return 0, false
}

func (r *refTLB) insert(gvpn, hpfn uint64) {
	set := r.set(gvpn)
	for i := range set {
		if set[i].valid && set[i].gvpn == gvpn {
			set[i].hpfn = hpfn
			return
		}
	}
	r.stats.Fills++
	for i := range set {
		if !set[i].valid {
			set[i] = refWay{gvpn, hpfn, true}
			return
		}
	}
	si := gvpn % sets
	set[r.next[si]] = refWay{gvpn, hpfn, true}
	r.next[si] = (r.next[si] + 1) % ways
	r.stats.Evictions++
}

func (r *refTLB) flushSingle(gvpn uint64) {
	r.stats.SingleFlushes++
	set := r.set(gvpn)
	for i := range set {
		if set[i].valid && set[i].gvpn == gvpn {
			set[i] = refWay{}
			return
		}
	}
}

func (r *refTLB) flushAll() {
	r.stats.FullFlushes++
	for i := range r.sets {
		clear(r.sets[i])
		r.next[i] = 0
	}
}

func (r *refTLB) scan() []refWay {
	var out []refWay
	for _, set := range r.sets {
		for _, w := range set {
			if w.valid {
				out = append(out, w)
			}
		}
	}
	return out
}

func scanOf(t *TLB) []refWay {
	var out []refWay
	t.Scan(func(gvpn, hpfn uint64) bool {
		out = append(out, refWay{gvpn, hpfn, true})
		return true
	})
	return out
}

// TestPackedMatchesReference drives the packed TLB and the reference with
// the same seeded operation mix over gvpns that collide in a few sets
// (more distinct pages per set than ways, so evictions are frequent) and
// that reach the top of the packed range. Every Lookup result, the
// counters and the Scan output must agree.
func TestPackedMatchesReference(t *testing.T) {
	hotSets := []uint64{0, 1, 5, sets - 1}
	const pagesPerSet = 3 * ways
	for _, seed := range []uint64{1, 2, 3, 7} {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			src := simrand.New(seed)
			tl, ref := NewDefault(), newRef()
			gvpn := func() uint64 {
				s := hotSets[src.Intn(len(hotSets))]
				if src.Bool(0.05) {
					return MaxGVPN - sets + s // the highest tag
				}
				return s + src.Uint64n(pagesPerSet)*sets
			}
			for op := 0; op < 50000; op++ {
				switch r := src.Uint64n(1000); {
				case r < 500:
					g := gvpn()
					h, ok := tl.Lookup(g)
					wh, wok := ref.lookup(g)
					if h != wh || ok != wok {
						t.Fatalf("op %d: Lookup(%#x) = %d,%v, reference %d,%v", op, g, h, ok, wh, wok)
					}
				case r < 850:
					hpfn := src.Uint64n(MaxHPFN + 1)
					if src.Bool(0.1) {
						hpfn = MaxHPFN
					}
					g := gvpn()
					tl.Insert(g, hpfn)
					ref.insert(g, hpfn)
				case r < 997:
					g := gvpn()
					tl.FlushSingle(g)
					ref.flushSingle(g)
				default:
					tl.FlushAll()
					ref.flushAll()
				}
				if op%997 == 0 {
					compareState(t, op, tl, ref)
				}
			}
			compareState(t, -1, tl, ref)
		})
	}
}

func compareState(t *testing.T, op int, tl *TLB, ref *refTLB) {
	t.Helper()
	if s, w := tl.Stats(), ref.stats; s != w {
		t.Fatalf("op %d: stats %+v, reference %+v", op, s, w)
	}
	got, want := scanOf(tl), ref.scan()
	if len(got) != len(want) || tl.Occupied() != len(want) {
		t.Fatalf("op %d: %d entries (Occupied %d), reference %d", op, len(got), tl.Occupied(), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("op %d: Scan entry %d = %+v, reference %+v", op, i, got[i], want[i])
		}
	}
}

// TestInsertOutsidePackedRangePanics pins the packing invariant: a gvpn
// or hpfn that does not fit its field must not be silently truncated.
func TestInsertOutsidePackedRangePanics(t *testing.T) {
	for _, c := range []struct{ gvpn, hpfn uint64 }{
		{MaxGVPN, 1},
		{^uint64(0), 1},
		{1, MaxHPFN + 1},
		{1, ^uint64(0)},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Insert(%#x, %#x) did not panic", c.gvpn, c.hpfn)
				}
			}()
			NewDefault().Insert(c.gvpn, c.hpfn)
		}()
	}
	tl := NewDefault()
	tl.Insert(MaxGVPN-1, MaxHPFN)
	if h, ok := tl.Lookup(MaxGVPN - 1); !ok || h != MaxHPFN {
		t.Fatalf("Lookup at the range edge = %#x,%v", h, ok)
	}
	// A gvpn above the range aliases MaxGVPN-1's truncated tag; it must miss.
	if _, ok := tl.Lookup(MaxGVPN - 1 + MaxGVPN + sets); ok {
		t.Fatal("out-of-range Lookup hit an aliased entry")
	}
}
