package workload

import (
	"fmt"
	"hash/fnv"
	"testing"
)

// goldenPrefix is how many accesses of each stream the golden hashes
// cover: past the init sweep and deep into the main phase.
const goldenPrefix = 200_000

// goldenStreams pins the first goldenPrefix accesses of each generator
// that experiments and the benchmark drive hardest, per seed, as an
// FNV-64a hash of (GVA, Write). TestWorkloadsAreDeterministic compares a
// build with itself; these hashes catch a changed stream across builds.
// Regenerate them only for an intended change of a workload's output.
var goldenStreams = []struct {
	name  string
	build func(seed uint64) Workload
	hash  map[uint64]uint64 // seed → hash
}{
	{"gups", func(seed uint64) Workload { return Must(NewGUPS(8192, 1_000_000, seed)) },
		map[uint64]uint64{1: 0x1679100f763a5b90, 7: 0x256667a31ddd2574}},
	{"liblinear", func(seed uint64) Workload { return Must(NewLibLinear(8192, 1_000_000, seed)) },
		map[uint64]uint64{1: 0x4c19cccb22b2acac, 7: 0x9e699fd387efdde5}},
	{"bwaves", func(seed uint64) Workload { return Must(NewBwaves(2048, 1_000_000, seed)) }, // draws nothing: seed-independent
		map[uint64]uint64{1: 0x9df00a10502a24ad, 7: 0x9df00a10502a24ad}},
	{"silo", func(seed uint64) Workload { return Must(NewSilo(8192, 100_000, seed)) },
		map[uint64]uint64{1: 0xe48696b9e28164da, 7: 0x3f9968dabdbfa9b5}},
}

// streamHash hashes the first goldenPrefix accesses of w, filled through a
// buffer of size accesses.
func streamHash(t *testing.T, w Workload, size int) uint64 {
	t.Helper()
	w.Setup(newFakeAS())
	h := fnv.New64a()
	buf := make([]Access, size)
	var rec [9]byte
	for left := goldenPrefix; left > 0; {
		n, done := w.Fill(buf)
		if n == 0 && !done {
			t.Fatalf("buffer %d: Fill made no progress", size)
		}
		for _, a := range buf[:min(n, left)] {
			for i := range 8 {
				rec[i] = byte(a.GVA >> (8 * i))
			}
			rec[8] = 0
			if a.Write {
				rec[8] = 1
			}
			h.Write(rec[:])
		}
		left -= min(n, left)
		if done && left > 0 {
			t.Fatalf("buffer %d: stream ended %d accesses short", size, left)
		}
	}
	return h.Sum64()
}

// TestGoldenWorkloadStreams checks each pinned stream at buffer sizes 1, 7
// and 2048. A transactional workload cannot fill a buffer smaller than one
// transaction, so those sizes grow by one transaction.
func TestGoldenWorkloadStreams(t *testing.T) {
	for _, g := range goldenStreams {
		for _, seed := range []uint64{1, 7} {
			for _, size := range []int{1, 7, 2048} {
				t.Run(fmt.Sprintf("%s/seed%d/buf%d", g.name, seed, size), func(t *testing.T) {
					w := g.build(seed)
					if tx, ok := w.(Transactional); ok && size < tx.TxnAccesses() {
						size += tx.TxnAccesses()
					}
					if got := streamHash(t, w, size); got != g.hash[seed] {
						t.Errorf("stream hash %#x, pinned %#x", got, g.hash[seed])
					}
				})
			}
		}
	}
}
