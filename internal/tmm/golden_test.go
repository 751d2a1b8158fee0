package tmm

import (
	"fmt"
	"strings"
	"testing"

	"demeter/internal/engine"
	"demeter/internal/hypervisor"
	"demeter/internal/sim"
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

// TestGoldenPolicyRuns pins small fixed runs of the four designs that keep
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
		{"nomad", func(t *testing.T) string {
			eng, vm, x, _ := rig(t, 1024, 16384, 8192, 400_000)
			p := NewNomad(testNomad())
			p.Attach(eng, vm)
			defer p.Detach()
			return goldenRun(t, eng, vm, x, func() []any { return []any{p.Stats(), p.HintMarks, p.ShadowDemotions, p.Retries} })
		}, "{Rounds:77 PTEsVisited:606208 HotObserved:195920 Promoted:1092 Demoted:1157 FailedPromotions:1627} 3483 0 1092 classify=4546560 migrate=13813852 track=47316060 | | runtime=155029159 tlb={Lookups:408192 Hits:198635 Misses:209557 SingleFlushes:225324 FullFlushes:0 Evictions:0 Fills:209557}"},
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
