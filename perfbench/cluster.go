package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"

	"demeter/internal/core"
	"demeter/internal/engine"
	"demeter/internal/experiments"
	"demeter/internal/hypervisor"
	"demeter/internal/mem"
	"demeter/internal/obs"
	"demeter/internal/sim"
	"demeter/internal/stats"
	"demeter/internal/tmm"
)

// numVMs is the VM count of every workload's cluster.
const numVMs = 3

// spec is one benchmark workload: an application run in numVMs VMs, each
// under its own instance of one tiering design.
type spec struct {
	name   string
	app    string // experiments.Scale.NewApp name
	design string // experiments.Scale.NewPolicy name
	// txnHist drives the executor's transactional consume path, which
	// retires each transaction through its own AccessBatch call.
	txnHist bool
}

// specs contrast A-bit scanning (TPP) and Demeter on the same GUPS
// traffic, and dense sampling (Memtis) on transactional Silo traffic;
// BENCHMARK.json says what each stresses.
var specs = []spec{
	{name: "gups-tpp", app: "gups", design: "tpp"},
	{name: "gups-demeter", app: "gups", design: "demeter"},
	{name: "silo-memtis", app: "silo", design: "memtis", txnHist: true},
}

func specByName(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// vmSeed derives VM i's workload seed from the benchmark seed.
func vmSeed(seed uint64, i int) uint64 { return seed*16 + uint64(i) + 1 }

// cluster is one built, not yet run, multi-VM simulation.
type cluster struct {
	scale experiments.Scale
	eng   *sim.Engine
	m     *hypervisor.Machine
	xs    []*engine.Executor
	pols  []experiments.Policy
}

// buildCluster wires a cluster at scale s the way experiments.RunCluster
// does: one host sized for all VMs, then per VM a guest, an executor over
// its workload and an attached policy instance. A non-nil tracer wraps the
// workloads, context-switch hooks and hint-fault handlers; the wrappers
// only time the calls they forward.
func buildCluster(sp spec, s experiments.Scale, seed uint64, tr *tracer) (*cluster, error) {
	eng := sim.NewEngine()
	m := hypervisor.NewMachine(eng, mem.PaperDRAMPMEM(s.VMFMEM*numVMs, s.VMSMEM*numVMs))
	m.Cost.ScanPTECost = s.ScanPTECost
	o := obs.New(0)
	m.AttachObs(o)
	c := &cluster{scale: s, eng: eng, m: m}
	for i := 0; i < numVMs; i++ {
		vm, err := m.NewVM(hypervisor.VMConfig{
			VCPUs: 4, GuestFMEM: s.VMFMEM, GuestSMEM: s.VMSMEM,
			FMEMBacking: 0, SMEMBacking: 1,
		})
		if err != nil {
			return nil, fmt.Errorf("VM%d: %w", i, err)
		}
		wl := s.NewApp(sp.app, vmSeed(seed, i))
		if tr != nil {
			wl = tr.wrapWorkload(wl)
		}
		x := engine.NewExecutor(eng, vm, wl)
		x.PublishObs(o, strconv.Itoa(i))
		if sp.txnHist {
			x.TxnHist = stats.NewHistogram()
		}
		pol := s.NewPolicy(sp.design)
		if tr != nil {
			vm.Kernel.RegisterContextSwitchHook(tr.drainBegin)
		}
		pol.Attach(eng, vm)
		if tr != nil {
			vm.Kernel.RegisterContextSwitchHook(tr.drainEnd)
			tr.wrapHintFault(vm)
		}
		c.xs = append(c.xs, x)
		c.pols = append(c.pols, pol)
	}
	if tr != nil {
		tr.watchLedgers(m)
	}
	return c, nil
}

// repResult is one run of one cluster.
type repResult struct {
	setup, loop, wall, audit time.Duration
	accesses                 uint64
	vmOK                     []bool   // finished within the horizon and passed its audits
	vmDigest                 []string // per-VM simulated-result digest
	problems                 []string
	counts                   workCounts
	layers                   *layerTimes // traced runs only
	mallocs, gcs             uint64      // Go allocations and GC cycles during the loop
	peakRSSMB                float64
}

// runRep builds a cluster, runs it to completion, detaches the policies
// and audits the machine. Only the simulation loop counts toward
// accesses_per_s; setup, detach and audits count toward wall time.
func runRep(sp spec, s experiments.Scale, seed uint64, traced bool) (repResult, error) {
	var tr *tracer
	if traced {
		tr = newTracer(sp)
	}
	// Start each run from a collected heap returned to the OS, so its
	// peak resident memory is its own.
	debug.FreeOSMemory()
	resetPeakRSS()
	start := time.Now()
	c, err := buildCluster(sp, s, seed, tr)
	if err != nil {
		return repResult{}, err
	}
	r := repResult{setup: time.Since(start)}

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs0, gcs0 := ms.Mallocs, ms.NumGC
	loopStart := time.Now()
	var ok bool
	if tr != nil {
		ok = tr.runAll(c.eng, c.scale.Horizon, c.xs)
	} else {
		ok = engine.RunAll(c.eng, c.scale.Horizon, c.xs...)
	}
	r.loop = time.Since(loopStart)
	runtime.ReadMemStats(&ms)
	r.mallocs, r.gcs = ms.Mallocs-mallocs0, uint64(ms.NumGC-gcs0)

	for _, p := range c.pols {
		p.Detach()
	}
	auditStart := time.Now()
	hostErr := c.m.AuditFrames()
	vmErrs := make([]error, numVMs)
	for i, vm := range c.m.VMs {
		vmErrs[i] = vm.AuditGuestFrames()
		if vmErrs[i] == nil {
			vmErrs[i] = vm.AuditMappings()
		}
	}
	r.audit = time.Since(auditStart)
	r.wall = time.Since(start)
	r.peakRSSMB = peakRSSMB()
	if tr != nil {
		r.layers = tr.finish(r.loop)
	}

	if !ok {
		r.problems = append(r.problems, fmt.Sprintf("cluster did not finish within horizon %v", c.scale.Horizon))
	}
	if hostErr != nil {
		r.problems = append(r.problems, fmt.Sprintf("host frame audit: %v", hostErr))
	}
	for i, x := range c.xs {
		vmOK := x.Finished() && hostErr == nil && vmErrs[i] == nil
		if vmErrs[i] != nil {
			r.problems = append(r.problems, fmt.Sprintf("VM%d audit: %v", i, vmErrs[i]))
		}
		r.vmOK = append(r.vmOK, vmOK)
		r.vmDigest = append(r.vmDigest, c.vmDigest(i))
		r.accesses += c.m.VMs[i].Stats().Accesses
	}
	r.counts = c.workCounts()
	return r, nil
}

// vmDigest hashes every simulated result of VM i: its counters, TLB
// statistics, guest ledger, policy statistics, runtime and transaction
// latencies, plus the shared host ledger and engine totals. Host-time
// measurements never enter it, so it is identical across runs of one
// workload and seed, traced or not.
func (c *cluster) vmDigest(i int) string {
	vm, x := c.m.VMs[i], c.xs[i]
	h := sha256.New()
	fmt.Fprintf(h, "vm %+v\ntlb %+v\n", vm.Stats(), vm.TLB.Stats())
	if vm.PEBS != nil {
		fmt.Fprintf(h, "pebs %+v\n", vm.PEBS.Stats())
	}
	for _, l := range []*sim.Ledger{vm.Ledger, c.m.HostLedger} {
		for _, comp := range l.Components() {
			fmt.Fprintf(h, "ledger %s %d\n", comp, l.Total(comp))
		}
	}
	fmt.Fprintf(h, "policy %s\n", policyStats(c.pols[i]))
	fmt.Fprintf(h, "ops %d finished %v", x.OpsDone(), x.Finished())
	if x.Finished() {
		fmt.Fprintf(h, " runtime %d", x.Runtime())
	}
	if x.TxnHist != nil {
		th := x.TxnHist
		fmt.Fprintf(h, "\ntxn %d %v %v %v", th.Count(), th.Mean(), th.Quantile(0.5), th.Quantile(0.99))
	}
	fmt.Fprintf(h, "\nengine %d %d\n", c.eng.EventsProcessed(), c.eng.Now())
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// policyStats renders a policy's public statistics.
func policyStats(p experiments.Policy) string {
	switch p := p.(type) {
	case *tmm.TPP:
		return fmt.Sprintf("%+v hint %d/%d", p.Stats(), p.HintMarks, p.HintFaults)
	case *tmm.Memtis:
		return fmt.Sprintf("%+v", p.Stats())
	case *core.Demeter:
		return fmt.Sprintf("%+v", p.Stats())
	}
	return p.Name()
}

// workCounts are the simulated work a run did. They are exact: the same
// workload and seed give the same counts on any host, so a change that
// only speeds the simulator up must leave them unchanged.
type workCounts struct {
	Accesses      uint64 `json:"accesses"`
	Events        uint64 `json:"events"`
	TLBLookups    uint64 `json:"tlb_lookups"`
	TLBHits       uint64 `json:"tlb_hits"`
	TLBMisses     uint64 `json:"tlb_misses"`
	SingleFlushes uint64 `json:"tlb_single_flushes"`
	FullFlushes   uint64 `json:"tlb_full_flushes"`
	EPTFaults     uint64 `json:"ept_faults"`
	FastHits      uint64 `json:"fast_hits"`
	SlowHits      uint64 `json:"slow_hits"`
	PTEsVisited   uint64 `json:"ptes_visited"`
	TMMRounds     uint64 `json:"tmm_rounds"`
	PEBSSamples   uint64 `json:"pebs_samples"`
	Epochs        uint64 `json:"core_epochs"`
	Migrations    uint64 `json:"migrations"`
	HintFaults    uint64 `json:"hint_faults"`
}

func (c *cluster) workCounts() workCounts {
	w := workCounts{Events: c.eng.EventsProcessed()}
	for i, vm := range c.m.VMs {
		st, ts := vm.Stats(), vm.TLB.Stats()
		w.Accesses += st.Accesses
		w.EPTFaults += st.EPTFaults
		w.FastHits += st.FastHits
		w.SlowHits += st.SlowHits
		w.TLBLookups += ts.Lookups
		w.TLBHits += ts.Hits
		w.TLBMisses += ts.Misses
		w.SingleFlushes += ts.SingleFlushes
		w.FullFlushes += ts.FullFlushes
		if vm.PEBS != nil {
			w.PEBSSamples += vm.PEBS.Stats().Samples
		}
		switch p := c.pols[i].(type) {
		case *tmm.TPP:
			ps := p.Stats()
			w.PTEsVisited += ps.PTEsVisited
			w.TMMRounds += ps.Rounds
			w.Migrations += ps.Promoted + ps.Demoted
			w.HintFaults += p.HintFaults
		case *tmm.Memtis:
			ps := p.Stats()
			w.TMMRounds += ps.Rounds
			w.Migrations += ps.Promoted + ps.Demoted
		case *core.Demeter:
			ps := p.Stats()
			w.Epochs += ps.Epochs
			w.Migrations += ps.Promoted + ps.Demoted
		}
	}
	return w
}

// perKAccess scales a count to one per thousand simulated accesses.
func (w workCounts) perKAccess(n uint64) float64 {
	if w.Accesses == 0 {
		return 0
	}
	return float64(n) * 1000 / float64(w.Accesses)
}
