package tmm

import (
	"demeter/internal/hypervisor"
	"demeter/internal/mem"
	"demeter/internal/pagetable"
	"demeter/internal/sim"
)

// NomadConfig tunes the Nomad model.
type NomadConfig struct {
	// ScanPeriod is the A-bit scan cadence.
	ScanPeriod sim.Duration
	// PromoteThreshold is deliberately conservative: Nomad optimizes
	// against migration thrashing, so it waits for more evidence before
	// moving a page than TPP does.
	PromoteThreshold uint8
	MaxScore         uint8
	// MigrationBatch caps transactional promotions per round.
	MigrationBatch int
	// ScanBatchPages bounds PTEs visited per round (incremental LRU
	// walk); zero means unbounded.
	ScanBatchPages int
	// ShadowFaultCount is the number of write-protect faults each
	// transactional copy pays (protect + resolve).
	ShadowFaultCount int
	// DirtyRetryFrac is the fraction of transactional copies aborted by
	// a concurrent write and retried.
	DirtyRetryFrac float64
}

// DefaultNomadConfig mirrors Nomad's published behaviour.
func DefaultNomadConfig() NomadConfig {
	return NomadConfig{
		ScanPeriod:       sim.Second,
		PromoteThreshold: 4,
		MaxScore:         6,
		MigrationBatch:   4096,
		ShadowFaultCount: 2,
		DirtyRetryFrac:   0.15,
	}
}

// Nomad models non-exclusive memory tiering via transactional page
// migration (OSDI'24): pages are promoted by a shadow copy performed while
// the page stays mapped, which removes migration downtime but pays
// write-protect faults per copy and keeps a shadow page in the slow tier.
// Demotion of a clean shadowed page is nearly free (drop the fast copy and
// remap to the retained shadow). The design's published weakness — slow
// reaction to static hotspots because of its conservative,
// thrash-avoidance-first policy — emerges from the high promote threshold.
type Nomad struct {
	Cfg NomadConfig

	eng          *sim.Engine
	vm           *hypervisor.VM
	shadow       map[uint64]bool // gvpn → has a retained slow-tier shadow
	ticker       *sim.Ticker
	cursor       uint64
	markCursor   uint64
	prevPromoted uint64 // promotions as of the previous mark pass
	active       bool
	stats        ScanStats

	// HintMarks counts armed promotion traps.
	HintMarks uint64
	// ShadowDemotions counts demotions satisfied by a retained shadow.
	ShadowDemotions uint64
	// Retries counts transactional copies restarted by concurrent dirtying.
	Retries uint64
}

// NewNomad returns a detached Nomad.
func NewNomad(cfg NomadConfig) *Nomad { return &Nomad{Cfg: cfg} }

// Name implements Policy.
func (p *Nomad) Name() string { return "nomad" }

// Stats returns a copy of the counters.
func (p *Nomad) Stats() ScanStats { return p.stats }

// Attach implements Policy.
func (p *Nomad) Attach(eng *sim.Engine, vm *hypervisor.VM) {
	if p.active {
		panic("tmm: Nomad attached twice")
	}
	p.eng, p.vm, p.active = eng, vm, true
	vm.Proc.GPT.ResetMeta()
	p.shadow = make(map[uint64]bool)
	vm.OnHintFault = p.hintFault
	p.ticker = eng.StartTicker(p.Cfg.ScanPeriod, func(sim.Time) {
		if p.active {
			p.round()
		}
	})
}

// Detach implements Policy.
func (p *Nomad) Detach() {
	if !p.active {
		return
	}
	p.active = false
	p.vm.OnHintFault = nil
	p.ticker.Stop()
}

// hintFault runs Nomad's transactional promotion on the faulting access:
// shadow setup write-protect faults, the copy, a dirty-retry tax, and
// retention of the slow-tier original as a shadow.
func (p *Nomad) hintFault(gvpn uint64) sim.Duration {
	vm := p.vm
	cm := &vm.Machine.Cost
	cost := cm.HintFaultCost
	e := vm.Proc.GPT.Lookup(gvpn)
	if e == nil {
		return cost
	}
	e.ClearHint()
	mCost, mErr := vm.MigrateGuestPage(gvpn, 0)
	if mErr != nil {
		p.stats.FailedPromotions++
		cost += mCost
		vm.Ledger.Charge(CompMigrate, cost)
		return cost
	}
	cost += mCost
	cost += sim.Duration(p.Cfg.ShadowFaultCount) * cm.HintFaultCost
	cost += sim.Duration(p.Cfg.DirtyRetryFrac * float64(mem.CopyCost(mem.SpecPMEM, mem.SpecLocalDRAM, mem.PageSize)))
	if p.Cfg.DirtyRetryFrac > 0 {
		p.Retries++
	}
	p.shadow[gvpn] = true
	p.stats.Promoted++
	vm.Ledger.Charge(CompMigrate, cost)
	return cost
}

func (p *Nomad) round() {
	vm := p.vm
	cm := &vm.Machine.Cost
	kernel := vm.Kernel

	var coldFast []uint64
	var flushCost sim.Duration
	cleared := 0
	dirtied := 0

	batch := p.Cfg.ScanBatchPages
	if batch <= 0 {
		batch = int(vm.Proc.GPT.Mapped())
	}
	visited, next := vm.Proc.GPT.ScanFrom(p.cursor, batch, func(gvpn uint64, e *pagetable.Entry) bool {
		accessed := e.Accessed()
		onFastPre := kernel.NodeOfGPFN(mem.Frame(e.Value())) == 0
		sc := vm.Proc.GPT.Meta(gvpn)
		if !accessed && onFastPre && *sc > 0 {
			// Second-chance verification, as in TPP.
			flushCost += vm.FlushSingle(gvpn)
		}
		if accessed {
			e.ClearAccessed()
			if !onFastPre || *sc < p.Cfg.MaxScore {
				flushCost += vm.FlushSingle(gvpn)
				cleared++
			}
		}
		// A dirtied page invalidates its retained shadow.
		if e.Dirty() && p.shadow[gvpn] {
			delete(p.shadow, gvpn)
			dirtied++
		}
		score := observe(sc, accessed, p.Cfg.MaxScore)
		onFast := kernel.NodeOfGPFN(mem.Frame(e.Value())) == 0
		if e.Hinted() && score < p.Cfg.MaxScore {
			e.ClearHint() // expire cooled candidates
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
	var migrateCost sim.Duration
	fastNode := kernel.Topo.Nodes[0]

	// Demotions maintain a small free watermark for hint faults. A clean
	// shadowed page demotes by dropping the fast copy and remapping to
	// the retained shadow; unshadowed pages pay the normal copy.
	target := uint64(float64(fastNode.Frames()) * 0.02)
	moved := 0
	ci := 0
	for fastNode.FreeFrames() < target && ci < len(coldFast) && moved < p.Cfg.MigrationBatch {
		gvpn := coldFast[ci]
		ci++
		if p.shadow[gvpn] {
			// Nearly free: remap to the retained slow-tier copy.
			if cost, ok := p.demoteToShadow(gvpn); ok {
				migrateCost += cost
				p.stats.Demoted++
				p.ShadowDemotions++
				moved++
				continue
			}
		}
		if cost, err := vm.MigrateGuestPage(gvpn, 1); err == nil {
			migrateCost += cost
			p.stats.Demoted++
			moved++
		}
	}
	vm.ChargeGuest(CompMigrate, migrateCost)
}

// markPass arms promotion traps on qualifying slow-tier pages with a
// rotating position cursor, like TPP's (Nomad shares the NUMA-balancing
// scan infrastructure).
func (p *Nomad) markPass() {
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
		// Like TPP, only saturated-score pages are marked — and Nomad's
		// deeper counter (MaxScore 6) makes saturation slower to reach,
		// the model's expression of its thrash-averse conservatism.
		if kernel.NodeOfGPFN(mem.Frame(e.Value())) != 0 && !e.Hinted() &&
			*vm.Proc.GPT.Meta(gvpn) >= p.Cfg.MaxScore {
			e.MarkHint()
			cost += vm.FlushSingle(gvpn)
			marked++
			if marked >= markCap {
				return false
			}
		}
		return true
	})
	p.markCursor = next
	p.HintMarks += uint64(marked)
	vm.ChargeGuest(CompTrack, sim.Duration(visited)*cm.PTEOpCost+cost)
}

// demoteToShadow drops the fast copy of a clean shadowed page. The model
// approximates this with a slow-tier migration charged only the remap and
// flush costs (no copy: the shadow already holds the data).
func (p *Nomad) demoteToShadow(gvpn uint64) (sim.Duration, bool) {
	vm := p.vm
	cost, err := vm.MigrateGuestPage(gvpn, 1)
	if err != nil {
		return 0, false
	}
	// Refund the copy: the shadow already held the bytes.
	copyCost := mem.CopyCost(mem.SpecLocalDRAM, vm.Kernel.Topo.Nodes[1].Spec, mem.PageSize)
	if cost > copyCost {
		cost -= copyCost
	}
	delete(p.shadow, gvpn)
	return cost, true
}
