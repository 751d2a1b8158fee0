package tmm

import (
	"fmt"
	"strings"
	"testing"

	"demeter/internal/engine"
	"demeter/internal/fault"
	"demeter/internal/hypervisor"
	"demeter/internal/sim"
	"demeter/internal/workload"
)

// goldenRun drives x to completion (or the horizon) with whatever policy
// is attached and renders everything a representation change could
// perturb: the policy's counters, both ledgers, the run time and the TLB.
func goldenRun(t *testing.T, eng *sim.Engine, vm *hypervisor.VM, x *engine.Executor, counters func() []any) string {
	t.Helper()
	if !x.Finished() && !engine.RunAll(eng, 500*sim.Second, x) {
		t.Fatal("did not finish")
	}
	var b strings.Builder
	for _, c := range counters() {
		fmt.Fprintf(&b, "%+v ", c)
	}
	for _, l := range []*sim.Ledger{vm.Ledger, vm.Machine.HostLedger} {
		for _, comp := range l.Components() {
			fmt.Fprintf(&b, "%s=%d ", comp, l.Total(comp))
		}
		b.WriteString("| ")
	}
	fmt.Fprintf(&b, "runtime=%d tlb=%+v", x.Runtime(), vm.TLB.Stats())
	return b.String()
}

// xsbenchRig is rig's machine running read-only XSBench lookups instead
// of GUPS.
func xsbenchRig(t *testing.T, ops uint64) (*sim.Engine, *hypervisor.VM, *engine.Executor) {
	t.Helper()
	eng, vm := machine(t, 1024, 16384)
	return eng, vm, engine.NewExecutor(eng, vm, workload.Must(workload.NewXSBench(8192, ops, 7)))
}

// armMigrateFaults makes a fixed share of guest page migrations fail,
// half of them after a partial copy.
func armMigrateFaults(vm *hypervisor.VM) {
	vm.Machine.Fault = fault.NewInjector(3)
	vm.Machine.Fault.Arm(hypervisor.FaultMigrateBusy, 0.1)
	vm.Machine.Fault.Arm(hypervisor.FaultMigrateCopy, 0.1)
}

// TestGoldenPolicyRuns pins small fixed runs of the designs that keep
// per-page state (scores in the page-table meta plane, the Memtis
// histogram) to known values: any drift in scan order, score semantics or
// classification order shows up here, not only in benchmark digests.
func TestGoldenPolicyRuns(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T) string
		want string
	}{
		{"tpp", func(t *testing.T) string {
			eng, vm, x, _ := rig(t, 1024, 16384, 8192, 400_000)
			p := NewTPP(testTPP())
			p.Attach(eng, vm)
			defer p.Detach()
			return goldenRun(t, eng, vm, x, func() []any { return []any{p.Stats(), p.HintMarks, p.HintFaults} })
		}, "{Rounds:72 PTEsVisited:565248 HotObserved:185741 Promoted:1661 Demoted:1794 FailedPromotions:1148} 4785 2809 classify=4239360 migrate=9520179 track=43371330 | | runtime=145127203 tlb={Lookups:408192 Hits:206294 Misses:201898 SingleFlushes:218050 FullFlushes:0 Evictions:0 Fills:201898}"},
		{"tpp-bounded-reattach", func(t *testing.T) string {
			// A bounded scan wraps its cursor, and a second Attach on the
			// same page table must start from zero scores.
			eng, vm, x, _ := rig(t, 1024, 16384, 8192, 400_000)
			cfg := testTPP()
			cfg.ScanBatchPages = 1500
			first := NewTPP(cfg)
			first.Attach(eng, vm)
			x.Start()
			eng.Run(sim.Time(40 * sim.Millisecond))
			first.Detach()
			p := NewTPP(cfg)
			p.Attach(eng, vm)
			defer p.Detach()
			for !x.Finished() && eng.Step() {
			}
			return goldenRun(t, eng, vm, x, func() []any { return []any{first.Stats(), p.Stats(), p.HintMarks, p.HintFaults} })
		}, "{Rounds:20 PTEsVisited:26624 HotObserved:20413 Promoted:0 Demoted:80 FailedPromotions:0} {Rounds:58 PTEsVisited:79728 HotObserved:68822 Promoted:54 Demoted:14 FailedPromotions:1095} 1388 1149 classify=797640 migrate=3277582 track=16499670 | | runtime=156574121 tlb={Lookups:408192 Hits:312381 Misses:95811 SingleFlushes:94115 FullFlushes:0 Evictions:0 Fills:95811}"},
		{"tpp-h", func(t *testing.T) string {
			eng, vm, x, _ := rig(t, 1024, 16384, 8192, 300_000)
			p := NewTPPH(testTPPH())
			p.Attach(eng, vm)
			defer p.Detach()
			return goldenRun(t, eng, vm, x, func() []any { return []any{p.Stats()} })
		}, "{Rounds:99 PTEsVisited:786432 HotObserved:197831 Promoted:8168 Demoted:8168 FailedPromotions:24738} | classify=5898240 migrate=16033784 track=12036480 | runtime=198886204 tlb={Lookups:308192 Hits:109525 Misses:198667 SingleFlushes:0 FullFlushes:16736 Evictions:0 Fills:198667}"},
		{"tpp-h-bounded-reattach", func(t *testing.T) string {
			// A bounded EPT scan wraps its cursor, and a second Attach on
			// the same EPT must start from zero scores.
			eng, vm, x, _ := rig(t, 1024, 16384, 8192, 300_000)
			cfg := testTPPH()
			cfg.ScanBatchPages = 1500
			first := NewTPPH(cfg)
			first.Attach(eng, vm)
			x.Start()
			eng.Run(sim.Time(40 * sim.Millisecond))
			first.Detach()
			p := NewTPPH(cfg)
			p.Attach(eng, vm)
			defer p.Detach()
			for !x.Finished() && eng.Step() {
			}
			return goldenRun(t, eng, vm, x, func() []any { return []any{first.Stats(), p.Stats()} })
		}, "{Rounds:20 PTEsVisited:26624 HotObserved:16802 Promoted:0 Demoted:0 FailedPromotions:5098} {Rounds:96 PTEsVisited:131072 HotObserved:90937 Promoted:662 Demoted:662 FailedPromotions:81954} | classify=1182720 migrate=1299506 track=2519040 | runtime=233944228 tlb={Lookups:308192 Hits:100014 Misses:208178 SingleFlushes:0 FullFlushes:1580 Evictions:0 Fills:208178}"},
		{"nomad", func(t *testing.T) string {
			eng, vm, x, _ := rig(t, 1024, 16384, 8192, 400_000)
			p := NewNomad(testNomad())
			p.Attach(eng, vm)
			defer p.Detach()
			return goldenRun(t, eng, vm, x, func() []any { return []any{p.Stats(), p.HintMarks, p.ShadowDemotions, p.Retries} })
		}, "{Rounds:77 PTEsVisited:606208 HotObserved:195920 Promoted:1092 Demoted:1157 FailedPromotions:1627} 3483 0 1092 classify=4546560 migrate=13813852 track=47316060 | | runtime=155029159 tlb={Lookups:408192 Hits:198635 Misses:209557 SingleFlushes:225324 FullFlushes:0 Evictions:0 Fills:209557}"},
		{"nomad-bounded-reattach", func(t *testing.T) string {
			// Nomad's shadow copies and scores both live in the page
			// table; a second Attach on the same table must drop both.
			// XSBench's lookups only read, so promoted pages stay clean
			// and keep their shadows.
			eng, vm, x := xsbenchRig(t, 400_000)
			cfg := testNomad()
			cfg.ScanBatchPages = 6000
			first := NewNomad(cfg)
			first.Attach(eng, vm)
			x.Start()
			eng.Run(sim.Time(300 * sim.Millisecond))
			first.Detach()
			p := NewNomad(cfg)
			p.Attach(eng, vm)
			defer p.Detach()
			for !x.Finished() && eng.Step() {
			}
			return goldenRun(t, eng, vm, x, func() []any {
				return []any{first.Stats(), first.ShadowDemotions, p.Stats(), p.HintMarks, p.ShadowDemotions, p.Retries}
			})
		}, "{Rounds:150 PTEsVisited:637295 HotObserved:340992 Promoted:954 Demoted:1039 FailedPromotions:2664} 238 {Rounds:203 PTEsVisited:874701 HotObserved:496824 Promoted:1065 Demoted:1060 FailedPromotions:3653} 8189 376 1065 classify=11339884 migrate=33278721 track=164461005 | | runtime=707138186 tlb={Lookups:2008601 Hits:1140916 Misses:867685 SingleFlushes:931222 FullFlushes:0 Evictions:0 Fills:867685}"},
		{"nomad-shadow", func(t *testing.T) string {
			eng, vm, x := xsbenchRig(t, 300_000)
			p := NewNomad(testNomad())
			p.Attach(eng, vm)
			defer p.Detach()
			return goldenRun(t, eng, vm, x, func() []any { return []any{p.Stats(), p.HintMarks, p.ShadowDemotions, p.Retries} })
		}, "{Rounds:263 PTEsVisited:2234215 HotObserved:769496 Promoted:3611 Demoted:3704 FailedPromotions:852} 10536 2620 3611 classify=16756485 migrate=32275017 track=192555690 | | runtime=526875812 tlb={Lookups:1508601 Hits:700742 Misses:807859 SingleFlushes:890622 FullFlushes:0 Evictions:0 Fills:807859}"},
		{"tpp-migrate-faults", func(t *testing.T) string {
			// Failed migrations: TPP books the work a failed demotion
			// burned.
			eng, vm, x, _ := rig(t, 1024, 16384, 8192, 400_000)
			armMigrateFaults(vm)
			p := NewTPP(testTPP())
			p.Attach(eng, vm)
			defer p.Detach()
			return goldenRun(t, eng, vm, x, func() []any { return []any{p.Stats(), p.HintMarks, p.HintFaults, vm.Stats().MigrateRollbacks} })
		}, "{Rounds:72 PTEsVisited:565248 HotObserved:185930 Promoted:1412 Demoted:1567 FailedPromotions:1104} 4125 2516 340 classify=4239360 migrate=8666634 track=42835140 | | runtime=145513069 tlb={Lookups:408192 Hits:205760 Misses:202432 SingleFlushes:216663 FullFlushes:0 Evictions:0 Fills:202432}"},
		{"nomad-migrate-faults", func(t *testing.T) string {
			// Nomad books only completed demotions, shadow or not.
			eng, vm, x := xsbenchRig(t, 300_000)
			armMigrateFaults(vm)
			p := NewNomad(testNomad())
			p.Attach(eng, vm)
			defer p.Detach()
			return goldenRun(t, eng, vm, x, func() []any {
				return []any{p.Stats(), p.HintMarks, p.ShadowDemotions, p.Retries, vm.Stats().MigrateRollbacks}
			})
		}, "{Rounds:261 PTEsVisited:2217013 HotObserved:769132 Promoted:2746 Demoted:2845 FailedPromotions:1333} 9514 1489 2746 640 classify=16627471 migrate=26673881 track=181556670 | | runtime=522850543 tlb={Lookups:1508601 Hits:702624 Misses:805977 SingleFlushes:883299 FullFlushes:0 Evictions:0 Fills:805977}"},
		{"vtmm", func(t *testing.T) string {
			eng, vm, x, _ := rig(t, 1024, 16384, 8192, 400_000)
			p := NewVTMM(testVTMM())
			p.Attach(eng, vm)
			defer p.Detach()
			return goldenRun(t, eng, vm, x, func() []any { return []any{p.Stats(), p.PMLExits} })
		}, "{Rounds:131 PTEsVisited:539680 HotObserved:197114 Promoted:67072 Demoted:67072 FailedPromotions:0} 447 | classify=113298915 migrate=131662336 track=22030040 | runtime=263046232 tlb={Lookups:408192 Hits:145286 Misses:262906 SingleFlushes:0 FullFlushes:134397 Evictions:0 Fills:262906}"},
		{"vtmm-reattach", func(t *testing.T) string {
			// A second Attach re-enables PML and starts from an empty
			// count plane.
			eng, vm, x, _ := rig(t, 1024, 16384, 8192, 400_000)
			first := NewVTMM(testVTMM())
			first.Attach(eng, vm)
			x.Start()
			eng.Run(sim.Time(40 * sim.Millisecond))
			first.Detach()
			p := NewVTMM(testVTMM())
			p.Attach(eng, vm)
			defer p.Detach()
			for !x.Finished() && eng.Step() {
			}
			return goldenRun(t, eng, vm, x, func() []any { return []any{first.Stats(), first.PMLExits, p.Stats(), p.PMLExits} })
		}, "{Rounds:20 PTEsVisited:81920 HotObserved:22905 Promoted:10240 Demoted:10240 FailedPromotions:0} 54 {Rounds:111 PTEsVisited:457760 HotObserved:173972 Promoted:56832 Demoted:56832 FailedPromotions:0} 391 | classify=112520910 migrate=131662336 track=22030040 | runtime=263850837 tlb={Lookups:408192 Hits:144813 Misses:263379 SingleFlushes:0 FullFlushes:134397 Evictions:0 Fills:263379}"},
		{"memtis", func(t *testing.T) string {
			eng, vm, x, _ := rig(t, 1024, 16384, 8192, 400_000)
			p := NewMemtis(testMemtis())
			p.Attach(eng, vm)
			defer p.Detach()
			return goldenRun(t, eng, vm, x, func() []any { return []any{p.Stats()} })
		}, "{Samples:31350 Translated:31350 Promoted:9267 Demoted:9399 Rounds:62} classify=5388855 migrate=11110165 track=23265750 | | runtime=124913129 tlb={Lookups:408192 Hits:386005 Misses:22187 SingleFlushes:18666 FullFlushes:0 Evictions:0 Fills:22187}"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := c.run(t); got != c.want {
				t.Errorf("golden drift\n got: %s\nwant: %s", got, c.want)
			}
		})
	}
}
