// Package tmm implements the tiered memory management designs the paper
// evaluates against Demeter:
//
//   - Static: first-touch placement, no management (the "static
//     allocation" reference in Figure 6).
//   - TPP: Transparent Page Placement (Maruf et al., ASPLOS'23) run
//     inside the guest (the paper's G-TPP): GPT A-bit scanning with
//     single-address invalidations, hint-fault promotion, watermark
//     demotion.
//   - TPPH: the hypervisor conversion of TPP (the paper's H-TPP/TPP-H):
//     EPT A-bit scanning through the MMU notifier — which, lacking gVAs,
//     must invalidate entire EPT translations — and host-side migration.
//   - Memtis (Lee et al., SOSP'23): guest PEBS with dedicated collection
//     threads, per-sample software address translation, a physical-page
//     hotness histogram and threshold classification.
//   - Nomad (Xiang et al., OSDI'24): TPP's guest A-bit tiering loop
//     with transactional shadow-copy migration that trades placement
//     agility for thrash-resistance.
//   - VTMM: vTMM (EuroSys'23), hypervisor-based like TPPH, adding PML
//     write logging and a frequency sort of per-page access counts.
//
// TPP, TPPH, Nomad and VTMM run one scan-loop lifecycle (scanLoop, tuned
// by ScanConfig). TPPH and VTMM share its EPT harvest and differ only in
// how often they flush and how they classify. Memtis and VTMM keep their
// decaying per-gpfn counts in one dense plane (gpfnCounts).
//
// All policies share one structural interface (Name/Attach/Detach) so the
// experiment harness treats them and core.Demeter uniformly, and all
// charge their CPU time to the same ledger components ("track",
// "classify", "migrate") that Figures 2 and 7 aggregate.
package tmm

import (
	"demeter/internal/hypervisor"
	"demeter/internal/pagetable"
	"demeter/internal/sim"
)

// Ledger component names, shared with core.Demeter.
const (
	CompTrack    = "track"
	CompClassify = "classify"
	CompMigrate  = "migrate"
)

// Policy is the common TMM lifecycle. core.Demeter satisfies it too.
type Policy interface {
	// Name identifies the design in harness output.
	Name() string
	// Attach starts management of vm; the workload must have Setup its
	// regions already.
	Attach(eng *sim.Engine, vm *hypervisor.VM)
	// Detach stops all activity.
	Detach()
}

// Static is the no-management baseline: pages stay where first touch put
// them.
type Static struct{}

// NewStatic returns the static-placement policy.
func NewStatic() *Static { return &Static{} }

// Name implements Policy.
func (*Static) Name() string { return "static" }

// Attach implements Policy (no-op).
func (*Static) Attach(*sim.Engine, *hypervisor.VM) {}

// Detach implements Policy (no-op).
func (*Static) Detach() {}

// observe folds one A-bit scan observation into a page's score, the
// scanning designs' per-page history kept in the low bits (scoreMask) of
// the scanned table's meta byte: a small saturating counter, incremented
// when the scan finds the A bit set and decremented otherwise (an
// LRU-generation approximation). The other bits are left alone. It
// returns the new score.
func observe(meta *uint8, accessed bool, max uint8) uint8 {
	score := *meta & scoreMask
	if accessed {
		if score < max {
			score++
		}
	} else if score > 0 {
		score--
	}
	*meta = *meta&^scoreMask | score
	return score
}

// ScanConfig tunes the loop every A-bit scanning design runs.
type ScanConfig struct {
	// ScanPeriod is the A-bit scan cadence.
	ScanPeriod sim.Duration
	// ScanBatchPages bounds the PTEs visited per round; the scan resumes
	// from a cursor next round, like kswapd's incremental LRU walks (for
	// the hypervisor designs, the MMU notifier's bounded batches). Zero
	// means unbounded.
	ScanBatchPages int
	// MigrationBatch caps migrations per round.
	MigrationBatch int
}

// ScanStats counts scanning-design activity (shared by TPP, TPPH, Nomad
// and VTMM).
type ScanStats struct {
	Rounds           uint64
	PTEsVisited      uint64
	HotObserved      uint64
	Promoted         uint64
	Demoted          uint64
	FailedPromotions uint64
}

// scanLoop is the lifecycle of an A-bit scanning design: a ticker that
// runs one round per ScanPeriod while attached, the cursor a bounded
// scan resumes from, and the counters.
type scanLoop struct {
	cfg    *ScanConfig
	vm     *hypervisor.VM
	ticker *sim.Ticker
	cursor uint64
	active bool
	stats  ScanStats
}

// Stats returns a copy of the counters.
func (l *scanLoop) Stats() ScanStats { return l.stats }

// start attaches the loop to vm and runs round every cfg.ScanPeriod. It
// panics if the loop is already attached.
func (l *scanLoop) start(eng *sim.Engine, vm *hypervisor.VM, design string, cfg *ScanConfig, round func()) {
	if l.active {
		panic("tmm: " + design + " attached twice")
	}
	l.cfg, l.vm, l.active = cfg, vm, true
	l.ticker = eng.StartTicker(cfg.ScanPeriod, func(sim.Time) {
		if l.active {
			round()
		}
	})
}

// stop detaches the loop; it reports false if it was not attached.
func (l *scanLoop) stop() bool {
	if !l.active {
		return false
	}
	l.active = false
	l.ticker.Stop()
	return true
}

// budget is the number of entries of t one bounded scan may visit.
func (l *scanLoop) budget(t *pagetable.Table) int {
	if l.cfg.ScanBatchPages <= 0 {
		return int(t.Mapped())
	}
	return l.cfg.ScanBatchPages
}

// harvest is the EPT A-bit round of the hypervisor designs: a bounded
// EPT scan from the cursor that clears every set A bit and calls fn for
// each visited entry with whether its bit was set. EPT entries carry no
// gVA to invalidate selectively (§2.3.1), so the cleared bits cost one
// full invalidation per flushEvery of them, plus one for a trailing
// partial batch. It returns the entries visited, the flush cost and the
// number of full flushes.
func (l *scanLoop) harvest(flushEvery int, fn func(gpfn uint64, e *pagetable.Entry, accessed bool)) (visited int, flushCost sim.Duration, fulls int) {
	vm := l.vm
	cleared := 0
	visited, next := vm.EPT.ScanFrom(l.cursor, l.budget(vm.EPT), func(gpfn uint64, e *pagetable.Entry) bool {
		accessed := e.Accessed()
		if accessed {
			e.ClearAccessed()
			cleared++
			if cleared%flushEvery == 0 {
				flushCost += vm.FlushFull()
				fulls++
			}
		}
		fn(gpfn, e, accessed)
		return true
	})
	if cleared%flushEvery != 0 {
		flushCost += vm.FlushFull()
		fulls++
	}
	l.cursor = next
	l.stats.Rounds++
	l.stats.PTEsVisited += uint64(visited)
	l.stats.HotObserved += uint64(cleared)
	return visited, flushCost, fulls
}

// countShift sizes gpfnCounts' blocks.
const countShift = 9

// gpfnCounts holds a decaying access count per gpfn in blocks indexed by
// gpfn>>countShift, allocated on a block's first count. A zero cell is an
// untracked page: a cooling sweep drops counts below 0.25.
type gpfnCounts struct {
	blocks []*[1 << countShift]float64
	n      int // non-zero cells
}

// add counts one access to gpfn.
func (c *gpfnCounts) add(gpfn uint64) {
	bi := int(gpfn >> countShift)
	if bi >= len(c.blocks) {
		c.blocks = append(c.blocks, make([]*[1 << countShift]float64, bi+1-len(c.blocks))...)
	}
	if c.blocks[bi] == nil {
		c.blocks[bi] = new([1 << countShift]float64)
	}
	cell := &c.blocks[bi][gpfn&(1<<countShift-1)]
	if *cell == 0 {
		c.n++
	}
	*cell++
}

// sweep calls fn on every tracked gpfn's count in ascending gpfn order
// and, if cool, then halves that count, untracking it below 0.25.
func (c *gpfnCounts) sweep(cool bool, fn func(gpfn uint64, count float64)) {
	for bi, blk := range c.blocks {
		if blk == nil {
			continue
		}
		for j, count := range blk {
			if count == 0 {
				continue
			}
			fn(uint64(bi)<<countShift|uint64(j), count)
			if cool {
				if blk[j] = count / 2; blk[j] < 0.25 {
					blk[j] = 0
					c.n--
				}
			}
		}
	}
}
