package tmm

import (
	"demeter/internal/hypervisor"
	"demeter/internal/mem"
	"demeter/internal/pagetable"
	"demeter/internal/sim"
)

// TPPHConfig tunes the hypervisor-based TPP conversion.
type TPPHConfig = ScanConfig

// The fixed parts of the H-TPP conversion.
const (
	// tpphPromoteThreshold / tpphMaxScore as in TPP, but over gPFNs.
	tpphPromoteThreshold = 2
	tpphMaxScore         = 4
	// tpphFlushBatch is how many cleared A bits the MMU notifier
	// accumulates before issuing one full EPT invalidation. KVM batches
	// notifier work, but every batch still costs an invept because EPT
	// entries carry no gVA to invalidate selectively (§2.3.1).
	tpphFlushBatch = 512
	// tpphNotifierStallFrac is the fraction of scan time the guest is
	// stalled by mmu_lock contention.
	tpphNotifierStallFrac = 0.5
	// tpphShootdownStall is guest vCPU time lost to the IPI storm of
	// each invept shootdown (all vCPUs are interrupted).
	tpphShootdownStall = 8 * sim.Microsecond
)

// DefaultTPPHConfig mirrors the paper's H-TPP conversion.
func DefaultTPPHConfig() TPPHConfig {
	return TPPHConfig{ScanPeriod: sim.Second, MigrationBatch: 4096}
}

// TPPH is the hypervisor-based TPP (the paper's H-TPP / TPP-H): it scans
// EPT A bits through the KVM MMU notifier and migrates pages by changing
// their host backing. It sees only gPAs and hPAs; without gVAs every
// A-bit harvest batch and every migration forces a destructive full EPT
// invalidation — the mechanism behind Table 1's 2.5× slowdown.
type TPPH struct {
	Cfg TPPHConfig
	scanLoop
}

// NewTPPH returns a detached hypervisor TPP.
func NewTPPH(cfg TPPHConfig) *TPPH { return &TPPH{Cfg: cfg} }

// Name implements Policy.
func (p *TPPH) Name() string { return "tpp-h" }

// Attach implements Policy.
func (p *TPPH) Attach(eng *sim.Engine, vm *hypervisor.VM) {
	p.start(eng, vm, "TPPH", &p.Cfg, p.round)
	vm.EPT.ResetMeta()
}

// Detach implements Policy.
func (p *TPPH) Detach() { p.stop() }

func (p *TPPH) round() {
	vm := p.vm
	cm := &vm.Machine.Cost
	fastHost := vm.Machine.Topo.FastNode()
	slowHost := vm.Machine.Topo.SlowNode()

	var hot []uint64      // gpfns on SMEM with score >= threshold
	var coldFast []uint64 // gpfns on FMEM with score 0
	visited, flushCost, fulls := p.harvest(tpphFlushBatch, func(gpfn uint64, e *pagetable.Entry, accessed bool) {
		score := observe(vm.EPT.Meta(gpfn), accessed, tpphMaxScore)
		onFast := fastHost.Contains(hostFrameOf(e))
		switch {
		case !onFast && score >= tpphPromoteThreshold && len(hot) < p.Cfg.MigrationBatch:
			hot = append(hot, gpfn)
		case onFast && score == 0 && len(coldFast) < 4*p.Cfg.MigrationBatch:
			coldFast = append(coldFast, gpfn)
		}
	})

	scanCost := sim.Duration(visited) * cm.ScanPTECost
	vm.ChargeHost(CompTrack, scanCost+flushCost)
	vm.ChargeHost(CompClassify, sim.Duration(visited)*cm.PTEOpCost/2)
	// Notifier scanning holds mmu_lock against the guest's fault paths,
	// and every invept shootdown interrupts all vCPUs.
	vm.Stall(sim.Duration(float64(scanCost) * tpphNotifierStallFrac))
	vm.Stall(sim.Duration(fulls) * tpphShootdownStall * sim.Duration(vm.VCPUs))

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
