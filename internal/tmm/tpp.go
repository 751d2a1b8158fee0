package tmm

import (
	"demeter/internal/hypervisor"
	"demeter/internal/mem"
	"demeter/internal/pagetable"
	"demeter/internal/sim"
)

// TPPConfig tunes the guest-resident TPP model.
type TPPConfig struct {
	// ScanPeriod is the A-bit scan cadence.
	ScanPeriod sim.Duration
	// PromoteThreshold is the score a slow-tier page needs for
	// promotion (TPP promotes on the second observed access).
	PromoteThreshold uint8
	// MaxScore caps the saturating counter.
	MaxScore uint8
	// MigrationBatch caps promotions per round.
	MigrationBatch int
	// ScanBatchPages bounds the PTEs visited per round; the scan resumes
	// from a cursor next round, like kswapd's incremental LRU walks.
	// Zero means unbounded.
	ScanBatchPages int
	// FreeTargetFrac is the FMEM free watermark the demotion side
	// (kswapd) maintains so promotions always find headroom.
	FreeTargetFrac float64
}

// DefaultTPPConfig mirrors TPP's Linux incarnation at full time scale.
func DefaultTPPConfig() TPPConfig {
	return TPPConfig{
		ScanPeriod:       sim.Second,
		PromoteThreshold: 2,
		MaxScore:         4,
		MigrationBatch:   4096,
		FreeTargetFrac:   0.04,
	}
}

// TPP is Transparent Page Placement inside the guest (G-TPP). Tracking
// walks the guest page table in bounded rounds, clearing A bits; because
// the guest knows each PTE's gVA, every cleared bit costs one
// single-address invalidation rather than a full flush (§2.3.1).
// Promotion is access-triggered: qualifying slow-tier pages are
// hint-marked (PROT_NONE style) and promoted from the resulting NUMA hint
// fault, so hotter pages naturally win the race for free fast-tier frames.
// Demotion is kswapd-style watermark maintenance.
type TPP struct {
	Cfg TPPConfig

	eng          *sim.Engine
	vm           *hypervisor.VM
	ticker       *sim.Ticker
	cursor       uint64
	markCursor   uint64
	prevPromoted uint64 // promotions as of the previous mark pass // round-robin fairness for hint marking
	active       bool
	stats        ScanStats

	// HintMarks / HintFaults count the promotion trap lifecycle.
	HintMarks, HintFaults uint64
}

// ScanStats counts scanning-design activity (shared by TPP/TPPH/Nomad).
type ScanStats struct {
	Rounds           uint64
	PTEsVisited      uint64
	HotObserved      uint64
	Promoted         uint64
	Demoted          uint64
	FailedPromotions uint64
}

// NewTPP returns a detached guest TPP.
func NewTPP(cfg TPPConfig) *TPP { return &TPP{Cfg: cfg} }

// Name implements Policy.
func (p *TPP) Name() string { return "tpp" }

// Stats returns a copy of the counters.
func (p *TPP) Stats() ScanStats { return p.stats }

// Attach implements Policy.
func (p *TPP) Attach(eng *sim.Engine, vm *hypervisor.VM) {
	if p.active {
		panic("tmm: TPP attached twice")
	}
	p.eng, p.vm, p.active = eng, vm, true
	vm.Proc.GPT.ResetMeta()
	vm.OnHintFault = p.hintFault
	p.ticker = eng.StartTicker(p.Cfg.ScanPeriod, func(sim.Time) {
		if p.active {
			p.round()
		}
	})
}

// Detach implements Policy.
func (p *TPP) Detach() {
	if !p.active {
		return
	}
	p.active = false
	p.vm.OnHintFault = nil
	p.ticker.Stop()
}

// hintFault promotes the faulting page if a fast-tier frame is free; the
// whole cost lands on the faulting access (the critical path), which is
// TPP's characteristic promotion overhead.
func (p *TPP) hintFault(gvpn uint64) sim.Duration {
	vm := p.vm
	cost := vm.Machine.Cost.HintFaultCost
	e := vm.Proc.GPT.Lookup(gvpn)
	if e == nil {
		return cost
	}
	e.ClearHint()
	p.HintFaults++
	mCost, err := vm.MigrateGuestPage(gvpn, 0)
	cost += mCost // failed attempts still burn the work already done
	if err == nil {
		p.stats.Promoted++
	} else {
		p.stats.FailedPromotions++
	}
	vm.Ledger.Charge(CompMigrate, cost)
	return cost
}

// round is one scan-classify-migrate pass.
func (p *TPP) round() {
	vm := p.vm
	cm := &vm.Machine.Cost
	gpt := vm.Proc.GPT
	kernel := vm.Kernel

	var coldFast []uint64 // FMEM-resident, score 0: demotion candidates
	var flushCost sim.Duration
	cleared := 0

	batch := p.Cfg.ScanBatchPages
	if batch <= 0 {
		batch = int(gpt.Mapped())
	}
	visited, next := gpt.ScanFrom(p.cursor, batch, func(gvpn uint64, e *pagetable.Entry) bool {
		accessed := e.Accessed()
		onFast := kernel.NodeOfGPFN(mem.Frame(e.Value())) == 0
		sc := gpt.Meta(gvpn)
		if !accessed && onFast && *sc > 0 {
			// Second-chance verification: a scored fast-tier page that
			// looks idle may just have a stale TLB entry from an earlier
			// no-flush clear. Invalidate it so the next access re-walks
			// and the following round observes the truth — genuinely hot
			// pages bounce back before their score decays to demotion.
			flushCost += vm.FlushSingle(gvpn)
		}
		if accessed {
			e.ClearAccessed()
			if !onFast || *sc < p.Cfg.MaxScore {
				// Flush only where precise recency matters: promotion
				// candidates in SMEM and not-yet-established fast-tier
				// pages. Saturated hot pages are cleared WITHOUT a flush
				// — Linux's clear_young path — so their observation goes
				// stale for a pass or two and the score dips before the
				// next accurate pass restores it. This keeps TPP's
				// invlpg volume well below its resident page count while
				// still aging genuinely cold pages to zero.
				flushCost += vm.FlushSingle(gvpn)
				cleared++
			}
		}
		score := observe(sc, accessed, p.Cfg.MaxScore)
		if e.Hinted() && score < p.Cfg.MaxScore {
			// The candidate cooled off before its promotion fault fired;
			// expire the trap so stale marks don't win frames from
			// genuinely hot pages.
			e.ClearHint()
		}
		if onFast && score == 0 && len(coldFast) < 4*p.Cfg.MigrationBatch {
			coldFast = append(coldFast, gvpn)
		}
		return true
	})
	p.cursor = next
	p.stats.Rounds++
	p.stats.PTEsVisited += uint64(visited)
	p.stats.HotObserved += uint64(cleared)

	vm.ChargeGuest(CompTrack, sim.Duration(visited)*cm.ScanPTECost+flushCost)
	vm.ChargeGuest(CompClassify, sim.Duration(visited)*cm.PTEOpCost/2)

	p.markPass()
	p.demote(coldFast)
}

// markPass is the NUMA-balancing side: a rate-limited, rotating pass that
// arms promotion traps on qualifying slow-tier pages. The position cursor
// wraps at the end of the table, so every candidate gets marked within a
// few rounds and the page's own access decides the promotion race.
func (p *TPP) markPass() {
	vm := p.vm
	cm := &vm.Machine.Cost
	kernel := vm.Kernel
	// Adaptive budget, like NUMA balancing's scan-rate backoff: marking
	// far beyond migration capacity only manufactures failed promotion
	// faults on the critical path.
	recent := int(p.stats.Promoted - p.prevPromoted)
	p.prevPromoted = p.stats.Promoted
	markCap := 2*recent + 32
	if markCap > 4*p.Cfg.MigrationBatch {
		markCap = 4 * p.Cfg.MigrationBatch
	}
	marked := 0
	scanBudget := p.Cfg.ScanBatchPages
	if scanBudget <= 0 {
		scanBudget = int(vm.Proc.GPT.Mapped())
	}
	var cost sim.Duration
	visited, next := vm.Proc.GPT.ScanFrom(p.markCursor, scanBudget, func(gvpn uint64, e *pagetable.Entry) bool {
		// Mark only saturated-score pages: sustained heat across several
		// scans, not a lucky window. This is what keeps the promotion
		// race dominated by genuinely hot pages instead of cold drifters
		// whose A bit happened to be set.
		if kernel.NodeOfGPFN(mem.Frame(e.Value())) != 0 && !e.Hinted() &&
			*vm.Proc.GPT.Meta(gvpn) >= p.Cfg.MaxScore {
			e.MarkHint()
			cost += vm.FlushSingle(gvpn) // PROT_NONE change
			marked++
			if marked >= markCap {
				return false
			}
		}
		return true
	})
	p.markCursor = next
	p.HintMarks += uint64(marked)
	// The pass rides along the balancing scan; charge a light touch per
	// visited PTE plus the flushes.
	vm.ChargeGuest(CompTrack, sim.Duration(visited)*cm.PTEOpCost+cost)
}

// demote is the kswapd side: restore the free watermark so hint faults
// find frames, demoting the coldest fast-tier pages, bounded per round.
func (p *TPP) demote(coldFast []uint64) {
	vm := p.vm
	fastNode := vm.Kernel.Topo.Nodes[0]
	var migrateCost sim.Duration
	target := uint64(float64(fastNode.Frames()) * p.Cfg.FreeTargetFrac)
	moved := 0
	ci := 0
	for fastNode.FreeFrames() < target && ci < len(coldFast) && moved < p.Cfg.MigrationBatch {
		cost, err := vm.MigrateGuestPage(coldFast[ci], 1)
		ci++
		migrateCost += cost
		if err != nil {
			continue
		}
		p.stats.Demoted++
		moved++
	}
	vm.ChargeGuest(CompMigrate, migrateCost)
}
