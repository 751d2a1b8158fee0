package pagetable

import (
	"math/rand/v2"
	"slices"
	"testing"
)

// refTable is the naive model Table is diffed against: a map of present
// keys plus a map of meta bytes, each of which outlives Unmap of its key
// until ResetMeta.
type refTable struct {
	value map[uint64]uint64
	meta  map[uint64]uint8
}

// keys returns the present keys in [lo, last], ascending.
func (r *refTable) keys(lo, last uint64) []uint64 {
	var out []uint64
	for k := range r.value {
		if k >= lo && k <= last {
			out = append(out, k)
		}
	}
	slices.Sort(out)
	return out
}

func collect(scan func(fn func(uint64, *Entry) bool) int) (keys []uint64, visited int) {
	visited = scan(func(k uint64, _ *Entry) bool {
		keys = append(keys, k)
		return true
	})
	return keys, visited
}

// diffAgainst checks every scan flavour, Mapped and the meta bytes.
func diffAgainst(t *testing.T, pt *Table, ref *refTable, rng *rand.Rand, space uint64) {
	t.Helper()
	if pt.Mapped() != uint64(len(ref.value)) {
		t.Fatalf("Mapped = %d, model has %d", pt.Mapped(), len(ref.value))
	}
	got, n := collect(pt.Scan)
	if want := ref.keys(0, ^uint64(0)); !slices.Equal(got, want) || n != len(want) {
		t.Fatalf("Scan visited %v (%d), model %v", got, n, want)
	}
	for k, v := range ref.value {
		if e := pt.Lookup(k); e == nil || e.Value() != v {
			t.Fatalf("Lookup(%#x) = %v, model %d", k, e, v)
		}
	}

	// Ranges inside one block, across blocks and past the keyspace.
	ranges := [][2]uint64{{0, space}, {space, 2 * space}, {7, 7}, {9, 3}}
	for i := 0; i < 8; i++ {
		lo := rng.Uint64N(space)
		ranges = append(ranges,
			[2]uint64{lo, lo + rng.Uint64N(blockSize)},
			[2]uint64{lo, lo + rng.Uint64N(4*blockSize)},
			[2]uint64{lo &^ blockMask, lo&^blockMask + blockSize})
	}
	for _, r := range ranges {
		got, n := collect(func(fn func(uint64, *Entry) bool) int { return pt.ScanRange(r[0], r[1], fn) })
		var want []uint64
		if r[1] > r[0] {
			want = ref.keys(r[0], r[1]-1)
		}
		if !slices.Equal(got, want) || n != len(want) {
			t.Fatalf("ScanRange[%#x,%#x) visited %v, model %v", r[0], r[1], got, want)
		}
	}

	// Bounded scans from block boundaries and random cursors; budget 1
	// walks a whole round one key at a time and must wrap to 0.
	starts := []uint64{0, blockSize, 3 * blockSize, space}
	for i := 0; i < 4; i++ {
		starts = append(starts, rng.Uint64N(space))
	}
	for _, start := range starts {
		for _, budget := range []int{1, 5, 1 + rng.IntN(2*blockSize)} {
			var got []uint64
			visited, next := pt.ScanFrom(start, budget, func(k uint64, _ *Entry) bool {
				got = append(got, k)
				return true
			})
			rest := ref.keys(start, ^uint64(0))
			want, wantNext := rest, uint64(0)
			if len(rest) > budget {
				want, wantNext = rest[:budget], rest[budget]
			}
			if !slices.Equal(got, want) || visited != len(want) || next != wantNext {
				t.Fatalf("ScanFrom(%#x, %d) = %v next %#x, model %v next %#x", start, budget, got, next, want, wantNext)
			}
		}
	}
	cursor, rounds := uint64(0), 0
	for {
		_, next := pt.ScanFrom(cursor, 1, func(uint64, *Entry) bool { return true })
		rounds++
		if next == 0 {
			break
		}
		cursor = next
	}
	if len(ref.value) > 0 && rounds != len(ref.value) {
		t.Fatalf("one-key ScanFrom wrapped after %d steps, want %d", rounds, len(ref.value))
	}

	for k, m := range ref.meta {
		p := pt.Meta(k)
		if m != 0 && (p == nil || *p != m) {
			t.Fatalf("meta of %#x lost: model %d", k, m)
		}
		if p != nil && *p != m {
			t.Fatalf("meta of %#x = %d, model %d", k, *p, m)
		}
	}
	if !slices.IsSorted(pt.order) || len(pt.order) != len(pt.blocks) {
		t.Fatalf("block index out of step with the blocks: %v", pt.order)
	}
	for _, bk := range pt.order {
		b := pt.blocks[bk]
		if b.present == 0 && b.meta == [blockSize]uint8{} {
			t.Fatalf("block %#x has no entries and no meta but was kept", bk)
		}
	}
}

// TestTableMatchesReferenceModel runs seeded random Map/Unmap/Remap/meta
// sequences against Table and the naive model, diffing every few steps.
func TestTableMatchesReferenceModel(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0))
		// Blocks 0-8 hold a few keys each, at and near block edges, so they
		// empty out and are dropped or kept by their meta bytes; blocks
		// 9-11 fill up with keys anywhere.
		const space = 12 * blockSize
		slots := []uint64{0, 1, 7, 255, 256, blockSize - 2, blockSize - 1}
		pt := New()
		ref := &refTable{value: map[uint64]uint64{}, meta: map[uint64]uint8{}}
		for step := 0; step < 3000; step++ {
			key := rng.Uint64N(9)*blockSize + slots[rng.IntN(len(slots))]
			if rng.IntN(8) == 0 {
				key = 9*blockSize + rng.Uint64N(3*blockSize)
			}
			_, present := ref.value[key]
			switch op := rng.IntN(10); {
			case !present && op < 6:
				v := rng.Uint64N(1 << 40)
				pt.Map(key, v)
				ref.value[key] = v
				if m := pt.Meta(key); *m != ref.meta[key] {
					t.Fatalf("seed %d: remapped %#x found meta %d, model %d", seed, key, *m, ref.meta[key])
				}
			case present && op < 4:
				pt.Unmap(key)
				delete(ref.value, key)
			case present && op < 6:
				v := rng.Uint64N(1 << 40)
				pt.Remap(key, v)
				ref.value[key] = v
			case present && op < 9:
				m := uint8(rng.IntN(4))
				*pt.Meta(key) = m
				ref.meta[key] = m
			case op == 9 && step%50 == 0:
				pt.ResetMeta()
				clear(ref.meta)
			}
			if step%97 == 0 {
				diffAgainst(t, pt, ref, rng, space)
			}
		}
		diffAgainst(t, pt, ref, rng, space)
		for k := range ref.value {
			pt.Unmap(k)
		}
		pt.ResetMeta()
		if len(pt.blocks) != 0 || len(pt.order) != 0 {
			t.Fatalf("seed %d: %d blocks left after unmapping all and resetting meta", seed, len(pt.blocks))
		}
	}
}

// A block dropped behind a walk must not make the walk skip the next one.
func TestScanSurvivesDroppedBlock(t *testing.T) {
	pt := New()
	keys := []uint64{5, blockSize + 1, 2*blockSize + 2, 3*blockSize + 3}
	for _, k := range keys {
		pt.Map(k, k)
	}
	var got []uint64
	pt.Scan(func(k uint64, _ *Entry) bool {
		got = append(got, k)
		pt.Unmap(k)
		return true
	})
	if !slices.Equal(got, keys) {
		t.Fatalf("visited %v, want %v", got, keys)
	}
}
