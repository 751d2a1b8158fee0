package tmm

import (
	"demeter/internal/hypervisor"
	"demeter/internal/mem"
	"demeter/internal/pagetable"
	"demeter/internal/sim"
)

// TPPHConfig tunes the hypervisor-based TPP conversion.
type TPPHConfig struct {
	// ScanPeriod is the EPT A-bit scan cadence.
	ScanPeriod sim.Duration
	// PromoteThreshold / MaxScore as in TPP, but over gPFNs.
	PromoteThreshold uint8
	MaxScore         uint8
	// MigrationBatch caps host migrations per round.
	MigrationBatch int
	// ScanBatchPages bounds EPT entries visited per round (the notifier
	// processes bounded batches); zero means unbounded.
	ScanBatchPages int
	// FlushBatchPages is how many cleared A bits the MMU notifier
	// accumulates before issuing one full EPT invalidation. KVM batches
	// notifier work, but every batch still costs an invept because EPT
	// entries carry no gVA to invalidate selectively (§2.3.1).
	FlushBatchPages int
	// NotifierStallFrac is the fraction of scan time the guest is
	// stalled by mmu_lock contention.
	NotifierStallFrac float64
	// ShootdownStall is guest vCPU time lost to the IPI storm of each
	// invept shootdown (all vCPUs are interrupted).
	ShootdownStall sim.Duration
}

// DefaultTPPHConfig mirrors the paper's H-TPP conversion.
func DefaultTPPHConfig() TPPHConfig {
	return TPPHConfig{
		ScanPeriod:        sim.Second,
		PromoteThreshold:  2,
		MaxScore:          4,
		MigrationBatch:    4096,
		FlushBatchPages:   512,
		NotifierStallFrac: 0.5,
		ShootdownStall:    8 * sim.Microsecond,
	}
}

// TPPH is the hypervisor-based TPP (the paper's H-TPP / TPP-H): it scans
// EPT A bits through the KVM MMU notifier and migrates pages by changing
// their host backing. It sees only gPAs and hPAs; without gVAs every
// A-bit harvest batch and every migration forces a destructive full EPT
// invalidation — the mechanism behind Table 1's 2.5× slowdown.
type TPPH struct {
	Cfg TPPHConfig

	eng    *sim.Engine
	vm     *hypervisor.VM
	ticker *sim.Ticker
	cursor uint64
	active bool
	stats  ScanStats
}

// NewTPPH returns a detached hypervisor TPP.
func NewTPPH(cfg TPPHConfig) *TPPH { return &TPPH{Cfg: cfg} }

// Name implements Policy.
func (p *TPPH) Name() string { return "tpp-h" }

// Stats returns a copy of the counters.
func (p *TPPH) Stats() ScanStats { return p.stats }

// Attach implements Policy.
func (p *TPPH) Attach(eng *sim.Engine, vm *hypervisor.VM) {
	if p.active {
		panic("tmm: TPPH attached twice")
	}
	p.eng, p.vm, p.active = eng, vm, true
	vm.EPT.ResetMeta()
	p.ticker = eng.StartTicker(p.Cfg.ScanPeriod, func(sim.Time) {
		if p.active {
			p.round()
		}
	})
}

// Detach implements Policy.
func (p *TPPH) Detach() {
	if !p.active {
		return
	}
	p.active = false
	p.ticker.Stop()
}

func (p *TPPH) round() {
	vm := p.vm
	cm := &vm.Machine.Cost
	fastHost := vm.Machine.Topo.FastNode()
	slowHost := vm.Machine.Topo.SlowNode()

	var hot []uint64      // gpfns on SMEM with score >= threshold
	var coldFast []uint64 // gpfns on FMEM with score 0
	var flushCost sim.Duration
	cleared := 0
	fulls := 0

	batch := p.Cfg.ScanBatchPages
	if batch <= 0 {
		batch = int(vm.EPT.Mapped())
	}
	visited, next := vm.EPT.ScanFrom(p.cursor, batch, func(gpfn uint64, e *pagetable.Entry) bool {
		accessed := e.Accessed()
		if accessed {
			e.ClearAccessed()
			cleared++
			// The notifier batches clears; each batch ends in invept.
			if cleared%p.Cfg.FlushBatchPages == 0 {
				flushCost += vm.FlushFull()
				fulls++
			}
		}
		score := observe(vm.EPT.Meta(gpfn), accessed, p.Cfg.MaxScore)
		onFast := fastHost.Contains(hostFrameOf(e))
		switch {
		case !onFast && score >= p.Cfg.PromoteThreshold && len(hot) < p.Cfg.MigrationBatch:
			hot = append(hot, gpfn)
		case onFast && score == 0 && len(coldFast) < 4*p.Cfg.MigrationBatch:
			coldFast = append(coldFast, gpfn)
		}
		return true
	})
	if cleared > 0 && cleared%p.Cfg.FlushBatchPages != 0 {
		flushCost += vm.FlushFull() // trailing partial batch
		fulls++
	}
	p.cursor = next
	p.stats.Rounds++
	p.stats.PTEsVisited += uint64(visited)
	p.stats.HotObserved += uint64(cleared)

	scanCost := sim.Duration(visited) * cm.ScanPTECost
	vm.ChargeHost(CompTrack, scanCost+flushCost)
	vm.ChargeHost(CompClassify, sim.Duration(visited)*cm.PTEOpCost/2)
	// Notifier scanning holds mmu_lock against the guest's fault paths,
	// and every invept shootdown interrupts all vCPUs.
	vm.Stall(sim.Duration(float64(scanCost) * p.Cfg.NotifierStallFrac))
	vm.Stall(sim.Duration(fulls) * p.Cfg.ShootdownStall * sim.Duration(vm.VCPUs))

	// Migration at the hypervisor's discretion: demote cold, promote hot.
	var migrateCost sim.Duration
	target := uint64(len(hot))
	ci := 0
	for fastHost.FreeFrames() < target && ci < len(coldFast) {
		cost, ok := vm.HostMigrate(coldFast[ci], slowHost.ID)
		ci++
		if !ok {
			continue
		}
		migrateCost += cost
		p.stats.Demoted++
	}
	for _, gpfn := range hot {
		cost, ok := vm.HostMigrate(gpfn, fastHost.ID)
		if !ok {
			p.stats.FailedPromotions++
			continue
		}
		migrateCost += cost
		p.stats.Promoted++
	}
	vm.ChargeHost(CompMigrate, migrateCost)
}

// hostFrameOf extracts the host frame from an EPT entry.
func hostFrameOf(e *pagetable.Entry) mem.Frame { return mem.Frame(e.Value()) }
