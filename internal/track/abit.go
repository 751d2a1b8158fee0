package track

import (
	"fmt"

	"demeter/internal/hypervisor"
	"demeter/internal/pagetable"
	"demeter/internal/sim"
)

// abitTracker is TPP's tracking half without its policy: bounded guest
// page-table A-bit scan rounds through internal/guestos, resuming from a
// cursor like kswapd's incremental LRU walks (§2.3.1). Because the scan
// runs in the guest and knows each PTE's gVA, every cleared bit costs a
// single-address invalidation, never a full flush. An accessed page gains
// a saturating score and a fresh LastSeen; an idle page decays one step
// per visit. The idlepage kind runs this same scan (idleTracker).
type abitTracker struct {
	cfg    Config
	kind   string // "abit", or "idlepage" for idleTracker's view
	eng    *sim.Engine
	vm     *hypervisor.VM
	ticker *sim.Ticker
	cursor uint64
	active bool

	acc  map[uint64]float64
	seen map[uint64]sim.Time
}

const (
	defaultABitScanPeriod = 50 * sim.Millisecond
	// abitMaxScore caps the saturating per-page counter, mirroring the
	// scanning designs' LRU-generation approximation.
	abitMaxScore = 8
)

func newABitTracker(cfg Config) (Tracker, error) {
	if cfg.Period == 0 {
		cfg.Period = defaultABitScanPeriod
	}
	return &abitTracker{cfg: cfg, kind: "abit"}, nil
}

func (t *abitTracker) Name() string { return t.kind }

func (t *abitTracker) Attach(eng *sim.Engine, vm *hypervisor.VM) error {
	if t.active {
		return fmt.Errorf("track: %s tracker already attached", t.kind)
	}
	t.eng, t.vm, t.active = eng, vm, true
	t.cursor = 0
	t.acc = make(map[uint64]float64)
	t.seen = make(map[uint64]sim.Time)
	t.ticker = eng.StartTicker(t.cfg.Period, func(sim.Time) {
		if t.active {
			t.round()
		}
	})
	return nil
}

func (t *abitTracker) Detach() {
	if !t.active {
		return
	}
	t.active = false
	t.ticker.Stop()
}

// round is one bounded scan pass: check-and-clear A bits, update scores.
func (t *abitTracker) round() {
	vm := t.vm
	cm := &vm.Machine.Cost
	gpt := vm.Proc.GPT

	batch := t.cfg.ScanBatch
	if batch <= 0 {
		batch = int(gpt.Mapped())
	}
	now := t.eng.Now()
	var flushCost sim.Duration
	visited, next := gpt.ScanFrom(t.cursor, batch, func(gvpn uint64, e *pagetable.Entry) bool {
		if e.Accessed() {
			e.ClearAccessed()
			flushCost += vm.FlushSingle(gvpn)
			if t.acc[gvpn] < abitMaxScore {
				t.acc[gvpn]++
			}
			t.seen[gvpn] = now
		} else if c := t.acc[gvpn]; c > 0 {
			if c <= 1 {
				delete(t.acc, gvpn)
			} else {
				t.acc[gvpn] = c - 1
			}
		}
		return true
	})
	t.cursor = next
	chargeTrack(vm, sim.Duration(visited)*cm.ScanPTECost+flushCost)
}

func (t *abitTracker) Counters() []Counter {
	return sortedCounters(t.acc, t.seen)
}
