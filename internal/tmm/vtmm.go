package tmm

import (
	"math"
	"math/bits"
	"sort"

	"demeter/internal/hypervisor"
	"demeter/internal/pagetable"
	"demeter/internal/sim"
)

// VTMMConfig tunes the vTMM model. Its ScanPeriod is the classification
// cadence: vTMM aggregates access information across rounds, then sorts
// page frequencies.
type VTMMConfig = ScanConfig

// The fixed parts of the vTMM model.
const (
	// vtmmDirtyResetBatch is how many EPT D bits are cleared per round
	// to re-arm PML (each batch forces an invept, like A-bit harvesting).
	vtmmDirtyResetBatch = 4096
	// vtmmHotFraction is the share of FMEM refilled with the sort's top
	// pages each round.
	vtmmHotFraction = 0.5
)

// DefaultVTMMConfig mirrors vTMM's published cadence at full time scale.
func DefaultVTMMConfig() VTMMConfig {
	return VTMMConfig{ScanPeriod: sim.Second, ScanBatchPages: 28000, MigrationBatch: 4096}
}

// VTMM models vTMM (EuroSys'23): hypervisor-based tiered memory
// management that tracks guest writes with Intel PML and reads with EPT
// A-bit scanning, classifies by sorting per-page access counts, and
// migrates at the host level. It inherits every hypervisor-side handicap
// the paper identifies: PML's fixed-frequency VM exits (§7.3), full EPT
// invalidations to re-arm both A and D bits, sorting cost over
// uncorrelated physical pages, and host-level migration flushes.
type VTMM struct {
	Cfg VTMMConfig
	scanLoop

	pml         *hypervisor.PML
	counts      gpfnCounts // gpfn → access score
	dirtyCursor uint64

	// PMLExits mirrors the PML unit's exit count for reporting.
	PMLExits uint64
}

// NewVTMM returns a detached vTMM.
func NewVTMM(cfg VTMMConfig) *VTMM { return &VTMM{Cfg: cfg} }

// Name implements Policy.
func (p *VTMM) Name() string { return "vtmm" }

// Attach implements Policy.
func (p *VTMM) Attach(eng *sim.Engine, vm *hypervisor.VM) {
	p.start(eng, vm, "vTMM", &p.Cfg, p.round)
	p.counts = gpfnCounts{}
	p.pml = hypervisor.NewPML()
	p.pml.OnFull = func(gpfns []uint64) {
		// Drain on the exit path: each logged write bumps its page.
		vm.ChargeHost(CompTrack, sim.Duration(len(gpfns))*vm.Machine.Cost.SampleHandleCost)
		for _, g := range gpfns {
			p.counts.add(g)
		}
	}
	vm.EnablePML(p.pml)
}

// Detach implements Policy.
func (p *VTMM) Detach() {
	if p.stop() {
		p.vm.DisablePML()
	}
}

func (p *VTMM) round() {
	vm := p.vm
	cm := &vm.Machine.Cost
	fastHost := vm.Machine.Topo.FastNode()
	slowHost := vm.Machine.Topo.SlowNode()

	// Read-side tracking: EPT A-bit harvest (like H-TPP, but one full
	// flush per round because there is no gVA to invalidate with).
	visited, flushCost, _ := p.harvest(math.MaxInt, func(gpfn uint64, _ *pagetable.Entry, accessed bool) {
		if accessed {
			p.counts.add(gpfn)
		}
	})

	// Write-side re-arm: clear a batch of D bits so PML keeps logging;
	// EPT modification again requires invept.
	dirtyCleared := 0
	_, p.dirtyCursor = vm.EPT.ScanFrom(p.dirtyCursor, vtmmDirtyResetBatch, func(gpfn uint64, e *pagetable.Entry) bool {
		if e.Dirty() {
			e.ClearDirty()
			dirtyCleared++
		}
		return true
	})
	if dirtyCleared > 0 {
		flushCost += vm.FlushFull()
	}
	p.PMLExits = p.pml.Stats().Exits

	scanCost := sim.Duration(visited+vtmmDirtyResetBatch) * cm.ScanPTECost
	vm.ChargeHost(CompTrack, scanCost+flushCost)

	// Classification: sort all tracked pages by score (vTMM's frequency
	// sort), charging n log n comparisons.
	type pageScore struct {
		gpfn  uint64
		score float64
	}
	pages := make([]pageScore, 0, p.counts.n)
	p.counts.sweep(true, func(g uint64, c float64) { pages = append(pages, pageScore{g, c}) })
	sort.Slice(pages, func(i, j int) bool {
		if pages[i].score != pages[j].score {
			return pages[i].score > pages[j].score
		}
		return pages[i].gpfn < pages[j].gpfn
	})
	sortCost := sim.Duration(0)
	if n := len(pages); n > 1 {
		sortCost = sim.Duration(n*(bits.Len(uint(n))-1)) * cm.PTEOpCost
	}
	vm.ChargeHost(CompClassify, sortCost)

	// Migration: fill a slice of FMEM with the sort's top pages.
	var migrateCost sim.Duration
	budget := min(int(float64(fastHost.Frames())*vtmmHotFraction), p.Cfg.MigrationBatch)
	moved := 0
	for _, ps := range pages {
		if moved >= budget {
			break
		}
		he := vm.EPT.Lookup(ps.gpfn)
		if he == nil || fastHost.Contains(hostFrameOf(he)) {
			continue
		}
		// Make room by demoting from the bottom of the sort.
		if fastHost.FreeFrames() == 0 {
			demoted := false
			for i := len(pages) - 1; i > 0; i-- {
				ce := vm.EPT.Lookup(pages[i].gpfn)
				if ce == nil || !fastHost.Contains(hostFrameOf(ce)) {
					continue
				}
				if cost, ok := vm.HostMigrate(pages[i].gpfn, slowHost.ID); ok {
					migrateCost += cost
					p.stats.Demoted++
					demoted = true
				}
				pages = pages[:i]
				break
			}
			if !demoted {
				break
			}
		}
		if cost, ok := vm.HostMigrate(ps.gpfn, fastHost.ID); ok {
			migrateCost += cost
			p.stats.Promoted++
			moved++
		} else {
			p.stats.FailedPromotions++
		}
	}
	vm.ChargeHost(CompMigrate, migrateCost)
}
