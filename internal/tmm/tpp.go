package tmm

import (
	"demeter/internal/hypervisor"
	"demeter/internal/mem"
	"demeter/internal/pagetable"
	"demeter/internal/sim"
)

// TPPConfig tunes the guest A-bit tiering loop that TPP and Nomad share.
type TPPConfig struct {
	ScanConfig
	// MaxScore caps the saturating counter; a slow-tier page is marked
	// for promotion once its score saturates. It must stay below
	// shadowBit.
	MaxScore uint8
}

// tppFreeTarget is the FMEM free watermark TPP's demotion side (kswapd)
// maintains so promotions always find headroom.
const tppFreeTarget = 0.04

// DefaultTPPConfig mirrors TPP's Linux incarnation at full time scale.
func DefaultTPPConfig() TPPConfig {
	return TPPConfig{
		ScanConfig: ScanConfig{ScanPeriod: sim.Second, MigrationBatch: 4096},
		MaxScore:   4,
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
	guestLoop
}

// NewTPP returns a detached guest TPP.
func NewTPP(cfg TPPConfig) *TPP { return &TPP{Cfg: cfg} }

// Name implements Policy.
func (p *TPP) Name() string { return "tpp" }

// Attach implements Policy.
func (p *TPP) Attach(eng *sim.Engine, vm *hypervisor.VM) {
	p.attach(eng, vm, "TPP", &p.Cfg, tppFreeTarget, nil)
}

// The guest meta byte of a page managed by the loop: the saturating
// A-bit score in the low bits and, for Nomad, a retained-shadow flag in
// the top bit.
const (
	shadowBit = 0x80
	scoreMask = shadowBit - 1
)

// guestLoop is the guest A-bit tiering loop of the NUMA-balancing
// designs: bounded GPT scan rounds that age a per-page score, a rotating
// pass that arms hint-fault promotion traps on saturated slow-tier pages,
// promotion from the hint fault, and watermark demotion of cold
// fast-tier pages. TPP runs it as is; Nomad adds a transactional
// shadow-copy rule (tx) at promotion and demotion, never per scanned PTE.
type guestLoop struct {
	scanLoop
	maxScore     uint8
	freeTarget   float64 // FMEM free watermark the demotion side keeps
	tx           *Nomad  // shadow-copy migration rule; nil for TPP
	markCursor   uint64
	prevPromoted uint64 // promotions as of the previous mark pass

	// HintMarks / HintFaults count the promotion trap lifecycle.
	HintMarks, HintFaults uint64
}

func (l *guestLoop) attach(eng *sim.Engine, vm *hypervisor.VM, design string, cfg *TPPConfig, freeTarget float64, tx *Nomad) {
	l.start(eng, vm, design, &cfg.ScanConfig, l.round)
	l.maxScore, l.freeTarget, l.tx = cfg.MaxScore, freeTarget, tx
	vm.Proc.GPT.ResetMeta()
	vm.OnHintFault = l.hintFault
}

// Detach implements Policy.
func (l *guestLoop) Detach() {
	if l.stop() {
		l.vm.OnHintFault = nil
	}
}

// hintFault promotes the faulting page if a fast-tier frame is free; the
// whole cost lands on the faulting access (the critical path), which is
// TPP's characteristic promotion overhead.
func (l *guestLoop) hintFault(gvpn uint64) sim.Duration {
	vm := l.vm
	cost := vm.Machine.Cost.HintFaultCost
	e := vm.Proc.GPT.Lookup(gvpn)
	if e == nil {
		return cost
	}
	e.ClearHint()
	l.HintFaults++
	mCost, err := vm.MigrateGuestPage(gvpn, 0)
	cost += mCost // failed attempts still burn the work already done
	if err == nil {
		l.stats.Promoted++
		if l.tx != nil {
			cost += l.tx.retainShadow(gvpn)
		}
	} else {
		l.stats.FailedPromotions++
	}
	vm.Ledger.Charge(CompMigrate, cost)
	return cost
}

// round is one scan-classify-migrate pass.
func (l *guestLoop) round() {
	vm := l.vm
	cm := &vm.Machine.Cost
	gpt := vm.Proc.GPT
	kernel := vm.Kernel
	maxScore := l.maxScore

	var coldFast []uint64 // FMEM-resident, score 0: demotion candidates
	var flushCost sim.Duration
	cleared := 0

	visited, next := gpt.ScanFrom(l.cursor, l.budget(gpt), func(gvpn uint64, e *pagetable.Entry) bool {
		accessed := e.Accessed()
		onFast := kernel.NodeOfGPFN(mem.Frame(e.Value())) == 0
		meta := gpt.Meta(gvpn)
		if e.Dirty() {
			// A write invalidates a retained shadow copy. Only Nomad
			// sets the bit, so for TPP this clears nothing.
			*meta &^= shadowBit
		}
		if !accessed && onFast && *meta&scoreMask > 0 {
			// Second-chance verification: a scored fast-tier page that
			// looks idle may just have a stale TLB entry from an earlier
			// no-flush clear. Invalidate it so the next access re-walks
			// and the following round observes the truth — genuinely hot
			// pages bounce back before their score decays to demotion.
			flushCost += vm.FlushSingle(gvpn)
		}
		if accessed {
			e.ClearAccessed()
			if !onFast || *meta&scoreMask < maxScore {
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
		score := observe(meta, accessed, maxScore)
		if e.Hinted() && score < maxScore {
			// The candidate cooled off before its promotion fault fired;
			// expire the trap so stale marks don't win frames from
			// genuinely hot pages.
			e.ClearHint()
		}
		if onFast && score == 0 && len(coldFast) < 4*l.cfg.MigrationBatch {
			coldFast = append(coldFast, gvpn)
		}
		return true
	})
	l.cursor = next
	l.stats.Rounds++
	l.stats.PTEsVisited += uint64(visited)
	l.stats.HotObserved += uint64(cleared)

	vm.ChargeGuest(CompTrack, sim.Duration(visited)*cm.ScanPTECost+flushCost)
	vm.ChargeGuest(CompClassify, sim.Duration(visited)*cm.PTEOpCost/2)

	l.markPass()
	l.demote(coldFast)
}

// markPass is the NUMA-balancing side: a rate-limited, rotating pass that
// arms promotion traps on qualifying slow-tier pages. The position cursor
// wraps at the end of the table, so every candidate gets marked within a
// few rounds and the page's own access decides the promotion race.
func (l *guestLoop) markPass() {
	vm := l.vm
	cm := &vm.Machine.Cost
	gpt := vm.Proc.GPT
	kernel := vm.Kernel
	// Adaptive budget, like NUMA balancing's scan-rate backoff: marking
	// far beyond migration capacity only manufactures failed promotion
	// faults on the critical path.
	recent := int(l.stats.Promoted - l.prevPromoted)
	l.prevPromoted = l.stats.Promoted
	markCap := 2*recent + 32
	if markCap > 4*l.cfg.MigrationBatch {
		markCap = 4 * l.cfg.MigrationBatch
	}
	marked := 0
	var cost sim.Duration
	visited, next := gpt.ScanFrom(l.markCursor, l.budget(gpt), func(gvpn uint64, e *pagetable.Entry) bool {
		// Mark only saturated-score pages: sustained heat across several
		// scans, not a lucky window. This is what keeps the promotion
		// race dominated by genuinely hot pages instead of cold drifters
		// whose A bit happened to be set. A deeper counter (Nomad's
		// MaxScore 6) makes saturation slower to reach.
		if kernel.NodeOfGPFN(mem.Frame(e.Value())) != 0 && !e.Hinted() &&
			*gpt.Meta(gvpn)&scoreMask >= l.maxScore {
			e.MarkHint()
			cost += vm.FlushSingle(gvpn) // PROT_NONE change
			marked++
			if marked >= markCap {
				return false
			}
		}
		return true
	})
	l.markCursor = next
	l.HintMarks += uint64(marked)
	// The pass rides along the balancing scan; charge a light touch per
	// visited PTE plus the flushes.
	vm.ChargeGuest(CompTrack, sim.Duration(visited)*cm.PTEOpCost+cost)
}

// demote is the kswapd side: restore the free watermark so hint faults
// find frames, demoting the coldest fast-tier pages, bounded per round.
func (l *guestLoop) demote(coldFast []uint64) {
	vm := l.vm
	fastNode := vm.Kernel.Topo.Nodes[0]
	var migrateCost sim.Duration
	target := uint64(float64(fastNode.Frames()) * l.freeTarget)
	moved := 0
	for ci := 0; fastNode.FreeFrames() < target && ci < len(coldFast) && moved < l.cfg.MigrationBatch; ci++ {
		gvpn := coldFast[ci]
		if l.tx != nil {
			if cost, ok := l.tx.demoteToShadow(gvpn); ok {
				migrateCost += cost
				l.stats.Demoted++
				moved++
				continue
			}
		}
		cost, err := vm.MigrateGuestPage(gvpn, 1)
		if err == nil || l.tx == nil {
			// TPP books the work a failed attempt burned; Nomad's
			// model has only ever charged completed demotions.
			migrateCost += cost
		}
		if err != nil {
			continue
		}
		l.stats.Demoted++
		moved++
	}
	vm.ChargeGuest(CompMigrate, migrateCost)
}
