package workload

import (
	"fmt"

	"demeter/internal/simrand"
)

// GUPS is the hotset variant of the Giga-Updates-Per-Second benchmark
// (§5.2): a table divided into a hot section receiving HotWeight× the
// access rate of the cold section, with uniform random read-modify-write
// transactions inside each section. The hot section is placed away from
// the start of the region so that the sequential init sweep leaves it in
// SMEM — promoting it is the TMM's job.
type GUPS struct {
	// FootprintPages is the table size.
	FootprintPages uint64
	// HotFraction is the hot section's share of the footprint (0.1).
	HotFraction float64
	// HotWeight is the access-rate multiplier of the hot section (10).
	HotWeight float64
	// Ops is the number of update transactions.
	Ops uint64
	// Seed fixes the access stream.
	Seed uint64

	rng       *simrand.Source
	region    uint64
	hotStart  uint64 // page index of hot section start
	hotPages  uint64
	pHot      float64
	remaining uint64
	sweep     initSweep
	ready     bool
}

// NewGUPS validates and returns a GUPS workload.
func NewGUPS(footprintPages, ops, seed uint64) (*GUPS, error) {
	if footprintPages < 16 {
		return nil, fmt.Errorf("gups: footprint of %d pages too small (want >= 16)", footprintPages)
	}
	return &GUPS{
		FootprintPages: footprintPages,
		HotFraction:    0.1,
		HotWeight:      10,
		Ops:            ops,
		Seed:           seed,
	}, nil
}

// Name implements Workload.
func (g *GUPS) Name() string { return "gups" }

// TotalOps implements Workload.
func (g *GUPS) TotalOps() uint64 { return g.Ops }

// Setup implements Workload.
func (g *GUPS) Setup(as AddressSpace) {
	g.rng = simrand.New(g.Seed ^ 0x67757073)
	g.region = as.Mmap(g.FootprintPages * 4096)
	g.hotPages = uint64(float64(g.FootprintPages) * g.HotFraction)
	if g.hotPages == 0 {
		g.hotPages = 1
	}
	// Hot section placed at 50% of the footprint: past the FMEM share the
	// init sweep grabs, so the hot set starts slow-tier resident.
	g.hotStart = g.FootprintPages / 2
	if g.hotStart+g.hotPages > g.FootprintPages {
		g.hotStart = g.FootprintPages - g.hotPages
	}
	hotMass := g.HotWeight * g.HotFraction
	g.pHot = hotMass / (hotMass + (1 - g.HotFraction))
	g.remaining = g.Ops
	g.sweep.add(g.region, g.FootprintPages)
	g.ready = true
}

// generate fills dst with update transactions. The hot/cold choice picks
// the draw's bound and offset rather than branching around the draw, so
// the stream is that of the two-branch form: hot pages are hotStart plus
// a draw over the hot run; cold pages are a draw over the rest, skipping
// the hot run.
func (g *GUPS) generate(dst []Access) {
	coldPages := g.FootprintPages - g.hotPages
	for i := range dst {
		bound, off, gap := coldPages, uint64(0), g.hotPages
		if g.rng.Float64() < g.pHot {
			bound, off, gap = g.hotPages, g.hotStart, 0
		}
		page := off + g.rng.Uint64n(bound)
		if page >= g.hotStart {
			page += gap
		}
		dst[i] = Access{GVA: pageGVA(g.region, page), Write: true}
	}
}

// Fill implements Workload.
func (g *GUPS) Fill(dst []Access) (int, bool) {
	checkSetup(g.Name(), g.ready)
	return fillLoop(&g.sweep, &g.remaining, dst, g.generate)
}

// HotRange returns the hot section as page indices relative to the region
// start — ground truth for classifier accuracy tests.
func (g *GUPS) HotRange() (startPage, pages uint64) { return g.hotStart, g.hotPages }

// Region returns the table's base address after Setup.
func (g *GUPS) Region() uint64 { return g.region }

// InitOps implements Workload: the sequential table-fill pass.
func (g *GUPS) InitOps() uint64 { return g.sweep.totalPages() }
