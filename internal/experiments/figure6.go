package experiments

import (
	"fmt"

	"demeter/internal/balloon"
	"demeter/internal/hypervisor"
	"demeter/internal/sim"
	"demeter/internal/stats"
)

func init() {
	register(Experiment{
		ID:    "figure6",
		Title: "GUPS throughput under different tiered memory provisioning techniques",
		Run:   Figure6,
	})
}

// provisionScheme describes how a VM's tier composition is established.
type provisionScheme struct {
	name   string
	design string // guest TMM attached after provisioning
	// setup provisions one VM and must call done() when settled; nil is
	// static allocation. The elastic setups get guest nodes sized at
	// 100% of VM memory, with balloons carving the provision.
	setup func(eng *sim.Engine, vm *hypervisor.VM, s Scale, done func())
}

func virtioSetup(eng *sim.Engine, vm *hypervisor.VM, s Scale, done func()) {
	// The host wants the guest shrunk from 2×total capacity to the
	// provisioned total; the legacy balloon cannot say which tier.
	b := balloon.NewLegacy(eng, vm)
	total := s.VMFMEM + s.VMSMEM
	b.Inflate(total, func(uint64) { done() })
}

func demeterSetup(eng *sim.Engine, vm *hypervisor.VM, s Scale, done func()) {
	d := balloon.NewDouble(eng, vm)
	d.SetProvision(s.VMFMEM, s.VMSMEM, done)
}

// Figure6 reproduces §5.2.1: nine VMs run GUPS under four provisioning
// schemes. Paper shape: the Demeter balloon matches static allocation
// while the tier-unaware VirtIO balloon under-provisions FMEM so badly
// that even with guest TMM it loses ~40% (Demeter balloon delivers +68%
// over VirtIO+TPP).
func Figure6(s Scale) string {
	schemes := []provisionScheme{
		{name: "static+tpp", design: "tpp"},
		{name: "virtio-balloon+tpp", design: "tpp", setup: virtioSetup},
		{name: "demeter-balloon+tpp", design: "tpp", setup: demeterSetup},
		{name: "demeter-balloon+demeter", design: "demeter", setup: demeterSetup},
	}

	thpts := runIndexed(len(schemes), func(i int) float64 {
		sc := schemes[i]
		return s.RunCluster(sc.design, s.VMs, s.gups, clusterOptions{provision: sc.setup}).Throughput()
	})

	tb := stats.NewTable("Figure 6: average GUPS throughput by provisioning technique (9 VMs)",
		"Provisioning", "Throughput (ops/s)", "vs static")
	staticThpt := thpts[0] // static+tpp is the first scheme
	report := ""
	for i, scheme := range schemes {
		tb.AddRow(scheme.name, fmt.Sprintf("%.3g", thpts[i]), fmt.Sprintf("%.2fx", thpts[i]/staticThpt))
	}
	report += tb.String()
	report += "\nPaper shape: Demeter balloon ≈ static; VirtIO balloon (+TPP) far\n" +
		"behind (Demeter balloon +68%) because inflation drains FMEM first.\n"
	return report
}
