package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"demeter/internal/experiments"
)

const (
	// setupReps is how many extra clusters an untraced measurement builds
	// and discards before each run, so setup_s is a median over many
	// builds.
	setupReps = 8
	// minTimedReps and minTracedReps are the fewest full runs a
	// measurement makes, however short its budget.
	minTimedReps  = 3
	minTracedReps = 2
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// distribution summarises one metric's samples within a measurement and
// keeps them, in run order, so drift within a measurement shows.
type distribution struct {
	Median float64   `json:"p50"`
	P90    float64   `json:"p90"`
	N      int       `json:"n"`
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
}

// record is the full account of one measurement, printed before result.
type record struct {
	Workload string `json:"workload"`
	Traced   bool   `json:"traced"`
	VMs      int    `json:"vms"`
	// Distributions are the untraced runs' end-to-end metrics and
	// LayerDistributions the traced runs' per-layer ones.
	Distributions      map[string]distribution `json:"distributions"`
	LayerDistributions map[string]distribution `json:"layer_distributions"`
	Counts             workCounts              `json:"exact_counts"`
	Digests            []string                `json:"vm_digests"`
	Problems           []string                `json:"problems,omitempty"`
	Layers             []*layerTimes           `json:"traced_layers,omitempty"`
	AccessCheck        *accessCheck            `json:"microbenchmark_check,omitempty"`
	Provenance         provenanceInfo          `json:"provenance"`
}

type measurement struct {
	record record
	result result
}

// samples collects named per-run values.
type samples struct {
	units  map[string]string
	values map[string][]float64
}

func newSamples() *samples {
	return &samples{units: map[string]string{}, values: map[string][]float64{}}
}

func (s *samples) add(name, unit string, v float64) {
	s.units[name] = unit
	s.values[name] = append(s.values[name], v)
}

func (s *samples) median(name string) float64 { return quantile(s.values[name], 0.5) }

func (s *samples) distributions() map[string]distribution {
	out := make(map[string]distribution, len(s.values))
	for name, vs := range s.values {
		out[name] = distribution{
			Median: quantile(vs, 0.5), P90: quantile(vs, 0.9),
			N: len(vs), Unit: s.units[name], Values: vs,
		}
	}
	return out
}

// quantile interpolates linearly between order statistics; 0 for no
// samples.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// checker compares every run's per-VM digests with the first run's and
// counts failed VM runs.
type checker struct {
	ref       []string
	counts    workCounts
	attempted int
	failed    int
	problems  []string
}

// check records run r and reports whether every VM in it passed.
func (c *checker) check(label string, r repResult) bool {
	if c.ref == nil {
		c.ref, c.counts = r.vmDigest, r.counts
	}
	for _, p := range r.problems {
		c.problems = append(c.problems, label+": "+p)
	}
	ok := true
	for i := range r.vmDigest {
		c.attempted++
		if !r.vmOK[i] || r.vmDigest[i] != c.ref[i] {
			if r.vmDigest[i] != c.ref[i] {
				c.problems = append(c.problems, fmt.Sprintf("%s: VM%d digest %s differs from %s", label, i, r.vmDigest[i], c.ref[i]))
			}
			c.failed++
			ok = false
		}
	}
	return ok
}

// accessesPerSecond is simulated accesses per host second of the loop.
func accessesPerSecond(r repResult) float64 { return float64(r.accesses) / r.loop.Seconds() }

// measure runs sp with seed for about budget of host time. Untraced, it
// reports end-to-end metrics over repeated runs and closes with one
// traced run, which checks the traced digests and gives the tracing
// overhead. Traced, it opens with one untraced run for the same reasons
// and reports the per-layer split over repeated traced runs.
func measure(sp spec, seed uint64, budget time.Duration, traced bool, commit string) (measurement, error) {
	start := time.Now()
	scale := experiments.Quick()
	chk := &checker{}
	plain, layered := newSamples(), newSamples()
	var tracedRates []float64
	var layers []*layerTimes

	// run makes one full run and files its samples if it passed.
	run := func(tracedRun bool) error {
		r, err := runRep(sp, scale, seed, tracedRun)
		if err != nil {
			return err
		}
		label := "untraced run"
		if tracedRun {
			label = "traced run"
		}
		if !chk.check(label, r) {
			return nil
		}
		if tracedRun {
			layers = append(layers, r.layers)
			tracedRates = append(tracedRates, accessesPerSecond(r))
			addLayerSamples(layered, r)
		} else {
			addRunSamples(plain, r)
		}
		return nil
	}
	// repeat runs until min runs are done and another, followed by
	// `after` more runs of about the same length, would overrun the
	// budget. Untraced runs are each preceded by setupReps set-ups, so the
	// set-ups spread over the budget like the runs.
	repeat := func(tracedRun bool, min, after int) error {
		var last time.Duration
		for n := 0; n < min || time.Since(start)+last*time.Duration(1+after) <= budget; n++ {
			t0 := time.Now()
			for i := 0; !tracedRun && i < setupReps; i++ {
				d, err := setupOnce(sp, scale, seed)
				if err != nil {
					return err
				}
				plain.add("setup_s", "s", d.Seconds())
			}
			if err := run(tracedRun); err != nil {
				return err
			}
			last = time.Since(t0)
		}
		return nil
	}

	var err error
	if traced {
		if err = run(false); err == nil {
			err = repeat(true, minTracedReps, 0)
		}
	} else {
		// Leave time for the closing traced run.
		if err = repeat(false, minTimedReps, 1); err == nil {
			err = run(true)
		}
	}
	if err != nil {
		return measurement{}, err
	}

	m := measurement{
		record: record{
			Workload: sp.name, Traced: traced, VMs: numVMs,
			Counts: chk.counts, Digests: chk.ref, Problems: chk.problems, Layers: layers,
		},
		result: result{
			Correct: chk.failed == 0, Attempted: chk.attempted, Failed: chk.failed,
			Metrics: map[string]metric{},
		},
	}
	overhead := 0.0
	if u := plain.median("accesses_per_s"); u > 0 {
		overhead = quantile(tracedRates, 0.5) / u
	}
	m.record.Provenance = provenance(commit, seed, overhead)
	addCountMetrics(layered, chk.counts)
	m.record.Distributions = plain.distributions()
	m.record.LayerDistributions = layered.distributions()
	m.record.AccessCheck = newAccessCheck(layered.median("hypervisor.access_ns_per_access"))
	reported := plain
	if traced {
		reported = layered
	}
	for name := range reported.values {
		m.result.Metrics[name] = metric{reported.median(name), reported.units[name]}
	}
	return m, nil
}

// setupOnce builds and discards one untraced cluster, returning the
// setup time.
func setupOnce(sp spec, s experiments.Scale, seed uint64) (time.Duration, error) {
	runtime.GC()
	start := time.Now()
	_, err := buildCluster(sp, s, seed, nil)
	return time.Since(start), err
}

// addRunSamples files one untraced run's end-to-end metrics.
func addRunSamples(s *samples, r repResult) {
	s.add("accesses_per_s", "1/s", accessesPerSecond(r))
	s.add("wall_s", "s", r.wall.Seconds())
	s.add("setup_s", "s", r.setup.Seconds())
	s.add("peak_rss_mb", "MB", r.peakRSSMB)
}

// addLayerSamples files one traced run's host-time split.
func addLayerSamples(s *samples, r repResult) {
	lt := r.layers
	loop := float64(lt.LoopNS)
	acc := float64(r.accesses)
	share := func(ns int64) float64 { return float64(ns) / loop }
	perOp := func(ns, n int64) float64 {
		if n == 0 {
			return 0
		}
		return float64(ns) / float64(n)
	}
	s.add("workload.fill_share", "fraction", share(lt.FillNS))
	s.add("workload.fill_ns_per_access", "ns", float64(lt.FillNS)/acc)
	s.add("hypervisor.access_share", "fraction", share(lt.AccessNS))
	s.add("hypervisor.access_ns_per_access", "ns", float64(lt.AccessNS)/acc)
	var tmmShare, coreShare, tmmTick, tmmHint, coreDrain float64
	if lt.PolicyLayer == "core" {
		coreShare = share(lt.policyNS())
		coreDrain = perOp(lt.DrainNS, lt.Drains)
	} else {
		tmmShare = share(lt.policyNS())
		tmmTick = perOp(lt.TickNS, lt.Ticks)
		tmmHint = perOp(lt.HintNS, lt.Hints)
	}
	s.add("tmm.tick_share", "fraction", tmmShare)
	s.add("tmm.ns_per_tick", "ns", tmmTick)
	s.add("tmm.hint_fault_ns", "ns", tmmHint)
	s.add("core.tick_share", "fraction", coreShare)
	s.add("core.drain_ns", "ns", coreDrain)
	s.add("sim.host_ns_per_event", "ns", loop/float64(r.counts.Events))
	s.add("sim.unattributed_share", "fraction", share(lt.unattributedNS()))
	s.add("audit.ns", "ns", float64(r.audit.Nanoseconds()))
	s.add("go.allocs_per_kaccess", "count", r.counts.perKAccess(r.mallocs))
	s.add("go.gc_cycles", "count", float64(r.gcs))
}

// addCountMetrics files the exact simulated-work counts.
func addCountMetrics(s *samples, w workCounts) {
	s.add("sim.events_per_kaccess", "count", w.perKAccess(w.Events))
	hitRate := 0.0
	if w.TLBLookups > 0 {
		hitRate = float64(w.TLBHits) / float64(w.TLBLookups)
	}
	s.add("tlb.hit_rate", "fraction", hitRate)
	s.add("tlb.misses_per_kaccess", "count", w.perKAccess(w.TLBMisses))
	s.add("tlb.single_flushes_per_kaccess", "count", w.perKAccess(w.SingleFlushes))
	s.add("tlb.full_flushes", "count", float64(w.FullFlushes))
	s.add("hypervisor.ept_faults", "count", float64(w.EPTFaults))
	slowShare := 0.0
	if hits := w.FastHits + w.SlowHits; hits > 0 {
		slowShare = float64(w.SlowHits) / float64(hits)
	}
	s.add("hypervisor.slow_hit_share", "fraction", slowShare)
	s.add("tmm.ptes_visited_per_kaccess", "count", w.perKAccess(w.PTEsVisited))
	s.add("tmm.rounds", "count", float64(w.TMMRounds))
	s.add("pebs.samples_per_kaccess", "count", w.perKAccess(w.PEBSSamples))
	s.add("core.epochs", "count", float64(w.Epochs))
	s.add("policy.migrations_per_kaccess", "count", w.perKAccess(w.Migrations))
}
