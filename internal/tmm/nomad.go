package tmm

import (
	"demeter/internal/hypervisor"
	"demeter/internal/mem"
	"demeter/internal/sim"
)

// NomadConfig tunes the Nomad model: it runs TPP's loop settings, and
// the cost of a transactional copy is fixed below.
type NomadConfig = TPPConfig

// The fixed parts of the Nomad model.
const (
	// nomadFreeTarget is the small FMEM free watermark Nomad's demotion
	// side keeps for hint faults.
	nomadFreeTarget = 0.02
	// nomadShadowFaultCount is the number of write-protect faults each
	// transactional copy pays (protect + resolve).
	nomadShadowFaultCount = 2
	// nomadDirtyRetryFrac is the fraction of transactional copies
	// aborted by a concurrent write and retried.
	nomadDirtyRetryFrac = 0.15
)

// DefaultNomadConfig mirrors Nomad's published behaviour. Nomad optimizes
// against migration thrashing, so its deeper counter waits for more
// evidence before moving a page than TPP does.
func DefaultNomadConfig() NomadConfig {
	return NomadConfig{
		ScanConfig: ScanConfig{ScanPeriod: sim.Second, MigrationBatch: 4096},
		MaxScore:   6,
	}
}

// Nomad models non-exclusive memory tiering via transactional page
// migration (OSDI'24): pages are promoted by a shadow copy performed while
// the page stays mapped, which removes migration downtime but pays
// write-protect faults per copy and keeps a shadow page in the slow tier.
// Demotion of a clean shadowed page is nearly free (drop the fast copy and
// remap to the retained shadow). Nomad shares Linux's NUMA-balancing scan
// with TPP, so it runs TPP's guest loop; the design's published weakness —
// slow reaction to static hotspots because of its conservative,
// thrash-avoidance-first policy — emerges from the deeper MaxScore.
type Nomad struct {
	Cfg NomadConfig
	guestLoop

	// ShadowDemotions counts demotions satisfied by a retained shadow.
	ShadowDemotions uint64
	// Retries counts transactional copies restarted by concurrent dirtying.
	Retries uint64
}

// NewNomad returns a detached Nomad.
func NewNomad(cfg NomadConfig) *Nomad { return &Nomad{Cfg: cfg} }

// Name implements Policy.
func (p *Nomad) Name() string { return "nomad" }

// Attach implements Policy.
func (p *Nomad) Attach(eng *sim.Engine, vm *hypervisor.VM) {
	p.attach(eng, vm, "Nomad", &p.Cfg, nomadFreeTarget, p)
}

// retainShadow completes a transactional promotion of gvpn: it returns
// the extra cost over a plain migration (the shadow setup's write-protect
// faults and the dirty-retry tax) and keeps the slow-tier original as a
// shadow until the page is dirtied.
func (p *Nomad) retainShadow(gvpn uint64) sim.Duration {
	cm := &p.vm.Machine.Cost
	p.Retries++
	*p.vm.Proc.GPT.Meta(gvpn) |= shadowBit
	return nomadShadowFaultCount*cm.HintFaultCost +
		sim.Duration(nomadDirtyRetryFrac*float64(mem.CopyCost(mem.SpecPMEM, mem.SpecLocalDRAM, mem.PageSize)))
}

// demoteToShadow drops the fast copy of a clean shadowed page. The model
// approximates this with a slow-tier migration charged only the remap and
// flush costs (no copy: the shadow already holds the data). It reports
// false, having done nothing, when gvpn has no shadow or the migration
// fails.
func (p *Nomad) demoteToShadow(gvpn uint64) (sim.Duration, bool) {
	vm := p.vm
	if *vm.Proc.GPT.Meta(gvpn)&shadowBit == 0 {
		return 0, false
	}
	cost, err := vm.MigrateGuestPage(gvpn, 1)
	if err != nil {
		return 0, false
	}
	// Refund the copy: the shadow already held the bytes.
	copyCost := mem.CopyCost(mem.SpecLocalDRAM, vm.Kernel.Topo.Nodes[1].Spec, mem.PageSize)
	if cost > copyCost {
		cost -= copyCost
	}
	*vm.Proc.GPT.Meta(gvpn) &^= shadowBit
	p.ShadowDemotions++
	return cost, true
}
