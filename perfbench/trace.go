package main

import (
	"strings"
	"time"

	"demeter/internal/balloon"
	"demeter/internal/engine"
	"demeter/internal/hypervisor"
	"demeter/internal/sim"
	"demeter/internal/tmm"
	"demeter/internal/workload"
)

// ledgerComponents are the management components a tick is labelled by.
var ledgerComponents = []string{tmm.CompTrack, tmm.CompClassify, tmm.CompMigrate, balloon.CompBalloon}

// tracer splits the simulation loop's host time by layer from outside
// the simulator. It times every engine step and classifies it:
//   - a step that called a workload's Fill is an executor slice; inside
//     it, Fill, hint-fault handlers and the policy's context-switch
//     drain are timed by wrappers, and the rest is the access path;
//   - any other step is a management tick, labelled by which ledger
//     components it charged; a step that charged none is unattributed.
//
// The wrappers forward every call unchanged, so a traced run simulates
// exactly what an untraced one does.
type tracer struct {
	policyLayer string // "core" for Demeter, "tmm" for the other designs

	fillNS, fills   int64
	hintNS, hints   int64
	drainNS, drains int64
	drainStart      time.Time

	ledgers []*sim.Ledger
	before  []sim.Duration // ledgers × components, reused every step

	sliceNS, slices int64
	tickNS, ticks   int64
	idleNS, idles   int64
	tickNSByMask    map[int]int64
}

func newTracer(sp spec) *tracer {
	layer := "tmm"
	if sp.design == "demeter" {
		layer = "core"
	}
	return &tracer{policyLayer: layer, tickNSByMask: map[int]int64{}}
}

// timedWorkload times Fill and forwards everything else.
type timedWorkload struct {
	workload.Workload
	tr *tracer
}

func (w *timedWorkload) Fill(dst []workload.Access) (int, bool) {
	t0 := time.Now()
	n, done := w.Workload.Fill(dst)
	w.tr.fillNS += int64(time.Since(t0))
	w.tr.fills++
	return n, done
}

// timedTxnWorkload keeps workload.Transactional visible through the
// wrapper, so the executor still takes its transactional consume path.
type timedTxnWorkload struct {
	*timedWorkload
	workload.Transactional
}

func (tr *tracer) wrapWorkload(wl workload.Workload) workload.Workload {
	tw := &timedWorkload{Workload: wl, tr: tr}
	if tx, ok := wl.(workload.Transactional); ok {
		return timedTxnWorkload{tw, tx}
	}
	return tw
}

// wrapHintFault times the handler the policy installed, if any. Call it
// after Attach.
func (tr *tracer) wrapHintFault(vm *hypervisor.VM) {
	inner := vm.OnHintFault
	if inner == nil {
		return
	}
	vm.OnHintFault = func(gvpn uint64) sim.Duration {
		t0 := time.Now()
		d := inner(gvpn)
		tr.hintNS += int64(time.Since(t0))
		tr.hints++
		return d
	}
}

// drainBegin and drainEnd are context-switch hooks registered before and
// after the policy attaches, so together they bracket the hooks the
// policy registered.
func (tr *tracer) drainBegin() { tr.drainStart = time.Now() }

func (tr *tracer) drainEnd() {
	tr.drainNS += int64(time.Since(tr.drainStart))
	tr.drains++
}

// watchLedgers records which ledgers a step's charges are looked for in.
func (tr *tracer) watchLedgers(m *hypervisor.Machine) {
	for _, vm := range m.VMs {
		tr.ledgers = append(tr.ledgers, vm.Ledger)
	}
	tr.ledgers = append(tr.ledgers, m.HostLedger)
	tr.before = make([]sim.Duration, len(tr.ledgers)*len(ledgerComponents))
}

func (tr *tracer) snapshotLedgers() {
	k := 0
	for _, l := range tr.ledgers {
		for _, comp := range ledgerComponents {
			tr.before[k] = l.Total(comp)
			k++
		}
	}
}

// grownMask returns a bit per ledger component charged since the last
// snapshot.
func (tr *tracer) grownMask() int {
	mask, k := 0, 0
	for _, l := range tr.ledgers {
		for ci, comp := range ledgerComponents {
			if l.Total(comp) != tr.before[k] {
				mask |= 1 << ci
			}
			k++
		}
	}
	return mask
}

// runAll is engine.RunAll with every step timed and classified: the same
// start, the same horizon and completion checks, the same Step calls.
func (tr *tracer) runAll(eng *sim.Engine, horizon sim.Duration, xs []*engine.Executor) bool {
	for _, x := range xs {
		x.Start()
	}
	deadline := eng.Now() + horizon
	for eng.Now() < deadline {
		allDone := true
		for _, x := range xs {
			if !x.Finished() {
				allDone = false
				break
			}
		}
		if allDone {
			return true
		}
		fills := tr.fills
		tr.snapshotLedgers()
		t0 := time.Now()
		stepped := eng.Step()
		dt := int64(time.Since(t0))
		if !stepped {
			break
		}
		if tr.fills != fills {
			tr.sliceNS += dt
			tr.slices++
		} else if mask := tr.grownMask(); mask != 0 {
			tr.tickNS += dt
			tr.ticks++
			tr.tickNSByMask[mask] += dt
		} else {
			tr.idleNS += dt
			tr.idles++
		}
	}
	for _, x := range xs {
		if !x.Finished() {
			return false
		}
	}
	return true
}

// layerTimes is the traced split of one simulation loop's host time.
type layerTimes struct {
	PolicyLayer string           `json:"policy_layer"`
	LoopNS      int64            `json:"loop_ns"`
	FillNS      int64            `json:"fill_ns"`
	AccessNS    int64            `json:"access_ns"`
	HintNS      int64            `json:"hint_ns"`
	Hints       int64            `json:"hints"`
	DrainNS     int64            `json:"drain_ns"`
	Drains      int64            `json:"drains"`
	TickNS      int64            `json:"tick_ns"`
	Ticks       int64            `json:"ticks"`
	Slices      int64            `json:"slices"`
	IdleNS      int64            `json:"idle_ns"`
	Idles       int64            `json:"idle_steps"`
	TickNSBy    map[string]int64 `json:"tick_ns_by_components"`
}

// finish closes the split over a loop that took loop host time.
func (tr *tracer) finish(loop time.Duration) *layerTimes {
	lt := &layerTimes{
		PolicyLayer: tr.policyLayer,
		LoopNS:      int64(loop),
		FillNS:      tr.fillNS,
		AccessNS:    tr.sliceNS - tr.fillNS - tr.hintNS - tr.drainNS,
		HintNS:      tr.hintNS,
		Hints:       tr.hints,
		DrainNS:     tr.drainNS,
		Drains:      tr.drains,
		TickNS:      tr.tickNS,
		Ticks:       tr.ticks,
		Slices:      tr.slices,
		IdleNS:      tr.idleNS,
		Idles:       tr.idles,
		TickNSBy:    map[string]int64{},
	}
	for mask, ns := range tr.tickNSByMask {
		var names []string
		for ci, comp := range ledgerComponents {
			if mask&(1<<ci) != 0 {
				names = append(names, comp)
			}
		}
		lt.TickNSBy[strings.Join(names, "+")] = ns
	}
	return lt
}

// policyNS is host time spent in the policy: its ticks, hint faults and
// context-switch drains.
func (lt *layerTimes) policyNS() int64 { return lt.TickNS + lt.HintNS + lt.DrainNS }

// unattributedNS is loop time no step classification labelled: steps
// that charged no ledger, the loop's own bookkeeping and timer overhead.
func (lt *layerTimes) unattributedNS() int64 {
	return lt.LoopNS - lt.FillNS - lt.AccessNS - lt.policyNS()
}
