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
//
// All policies share one structural interface (Name/Attach/Detach) so the
// experiment harness treats them and core.Demeter uniformly, and all
// charge their CPU time to the same ledger components ("track",
// "classify", "migrate") that Figures 2 and 7 aggregate.
package tmm

import (
	"demeter/internal/hypervisor"
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
