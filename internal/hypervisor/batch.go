package hypervisor

import (
	"demeter/internal/guestos"
	"demeter/internal/mem"
	"demeter/internal/sim"
	"demeter/internal/workload"
)

// Batched access execution.
//
// AccessBatch is the stage-split twin of Access: it consumes a whole
// workload batch in one call so per-access dispatch overhead (callback,
// re-loaded VM fields, per-sample PEBS calls) amortizes across the batch.
// It has no prefetch stage. An earlier version warmed the TLB tag lines
// and both page tables 512 accesses ahead. Once a TLB set became one
// packed cache line, the stage stopped paying: in 4 alternating perfbench
// pairs per workload (10 s runs, 2-vCPU Xeon, GOMAXPROCS 2), dropping it
// won 3 of 4 on gups-demeter and 4 of 4 on gups-tpp and silo-memtis, with
// median pair gains of 10%, 12% and 13%.
//
// The contract is strict equivalence with the scalar path: identical
// vm.stats, TLB stats, PEBS sample streams, fault-stream consumption
// order, and an identical cost total (sim.Duration is an integer, so
// summation order cannot perturb it). The design keeps that contract by
// construction rather than by reconciliation:
//
//   - Accesses are TLB-probed in order with the real, counted Lookup.
//     A straight hits/misses partition up front would be wrong twice
//     over: a miss inserts its translation, turning a same-page repeat
//     later in the batch into a hit (scalar behavior) that a
//     pre-partition would have misclassified; and an OnHintFault
//     handler can migrate pages and flush the TLB mid-batch.
//   - Consecutive hits accumulate into a fixed-size run buffer owned by
//     the VM (no allocation). The run is flushed — tier-resolved,
//     stats-folded, PEBS-recorded — whenever a miss, a full buffer, or
//     the batch end arrives, always before the next miss executes, so
//     any observer inside the miss path (an OnHintFault handler reading
//     vm.Stats()) sees exactly the scalar counters.
//   - Tier resolution memoizes one mem.TierRange per run segment: host
//     frames cluster by tier, so most probes resolve with two compares
//     against the cached bounds instead of a Topo.Tier call. DRAM
//     segments fold into one stats update and one RecordBatch append;
//     slow-tier segments do too unless a fault injector is attached, in
//     which case the spike draw forces the scalar per-access order.
//   - Misses reuse accessMiss unchanged, so guest-fault, EPT-fault,
//     A/D-bit, PML and TLB-refill semantics stay bit-exact.

// batchRunCap sizes the VM's hit-run scratch buffers. 256 entries × two
// uint64 planes = 4 KiB, small enough to stay cache-resident; longer hit
// runs simply flush mid-run with no observable difference.
const batchRunCap = 256

// batchState is the VM-owned scratch for one in-flight hit run. Fixed
// arrays, not slices: the zero-alloc guarantee must hold for any batch
// length.
type batchState struct {
	gvpn   [batchRunCap]uint64
	hpfn   [batchRunCap]uint64
	writes uint64 // write count of the pending run (hits never mark dirty)
}

// AccessBatch executes a batch of guest accesses and returns the summed
// latency, equivalent by construction to calling Access once per element
// (see the package comment above for the argument).
//
//demeter:hotpath
func (vm *VM) AccessBatch(buf []workload.Access) sim.Duration {
	var total sim.Duration
	n := 0 // pending hit-run length
	for _, a := range buf {
		gvpn := a.GVA >> guestos.PageShift
		if hpfn, ok := vm.TLB.Lookup(gvpn); ok {
			if n == batchRunCap {
				total += vm.flushHitRun(n)
				n = 0
			}
			vm.batch.gvpn[n] = gvpn
			vm.batch.hpfn[n] = hpfn
			if a.Write {
				vm.batch.writes++
			}
			n++
			continue
		}
		if n > 0 {
			total += vm.flushHitRun(n)
			n = 0
		}
		vm.stats.Accesses++
		if a.Write {
			vm.stats.Writes++
		}
		total += vm.accessMiss(a.GVA, gvpn, a.Write)
	}
	if n > 0 {
		total += vm.flushHitRun(n)
	}
	return total
}

// flushHitRun retires the pending hit run: resolves tiers with a
// per-segment TierRange memo, folds the stats updates, and appends PEBS
// samples in run-sized chunks. Order within the run is preserved — the
// run is segmented into maximal stretches of frames sharing one tier
// range, and segments retire left to right — so the PEBS period counter
// advances through exactly the scalar sample sequence.
//
//demeter:hotpath
func (vm *VM) flushHitRun(n int) sim.Duration {
	b := &vm.batch
	topo := vm.Machine.Topo
	spiky := vm.Machine.Fault != nil
	var total sim.Duration
	var lo, hi mem.Frame
	var loaded sim.Duration
	var kind mem.TierKind
	for i := 0; i < n; {
		f := mem.Frame(b.hpfn[i])
		if i == 0 || f < lo || f >= hi {
			lo, hi, loaded, kind = topo.TierRange(f)
		}
		j := i + 1
		for j < n {
			if g := mem.Frame(b.hpfn[j]); g < lo || g >= hi {
				break
			}
			j++
		}
		cnt := uint64(j - i)
		if kind == mem.TierDRAM {
			vm.stats.FastHits += cnt
			total += sim.Duration(cnt) * loaded
			if vm.PEBS != nil {
				vm.PEBS.RecordBatch(b.gvpn[i:j], loaded, true)
			}
		} else {
			vm.stats.SlowHits += cnt
			if spiky {
				// An injector is attached: each slow access draws from the
				// spike fault stream in order, exactly as the scalar path.
				for k := i; k < j; k++ {
					lat := loaded + vm.slowTierSpike(loaded)
					total += lat
					if vm.PEBS != nil {
						vm.PEBS.Record(b.gvpn[k], lat, false)
					}
				}
			} else {
				total += sim.Duration(cnt) * loaded
				if vm.PEBS != nil {
					vm.PEBS.RecordBatch(b.gvpn[i:j], loaded, false)
				}
			}
		}
		i = j
	}
	vm.stats.Accesses += uint64(n)
	vm.stats.Writes += b.writes
	b.writes = 0
	return total
}
