package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"demeter/internal/experiments"
	"demeter/internal/workload"
)

// TestTracingLeavesSimulationIdentical runs every workload untraced and
// traced and requires the same per-VM digests and work counts: the Fill,
// hint-fault and context-switch wrappers only time what they forward.
// It also checks that each wrapper saw its calls, so a wrapper that
// silently stopped applying (Transactional lost through the Fill
// wrapper, say) fails here rather than skewing the split.
func TestTracingLeavesSimulationIdentical(t *testing.T) {
	for _, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			plain, err := runRep(sp, experiments.Tiny(), 3, false)
			if err != nil {
				t.Fatal(err)
			}
			traced, err := runRep(sp, experiments.Tiny(), 3, true)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range []repResult{plain, traced} {
				if len(r.problems) > 0 {
					t.Fatalf("run failed its checks: %v", r.problems)
				}
			}
			if !reflect.DeepEqual(plain.vmDigest, traced.vmDigest) {
				t.Errorf("digests differ: untraced %v, traced %v", plain.vmDigest, traced.vmDigest)
			}
			if plain.counts != traced.counts {
				t.Errorf("work counts differ:\nuntraced %+v\ntraced   %+v", plain.counts, traced.counts)
			}
			lt := traced.layers
			if lt.Slices == 0 || lt.FillNS <= 0 || lt.Ticks == 0 {
				t.Errorf("traced split saw no slices, fills or ticks: %+v", lt)
			}
			if sp.design == "tpp" && lt.Hints == 0 {
				t.Errorf("hint-fault wrapper saw no hint faults: %+v", lt)
			}
			if sp.design == "demeter" && lt.Drains == 0 {
				t.Errorf("drain hooks saw no context switches: %+v", lt)
			}
			if got := lt.FillNS + lt.AccessNS + lt.policyNS() + lt.unattributedNS(); got != lt.LoopNS {
				t.Errorf("split sums to %d ns, loop took %d ns", got, lt.LoopNS)
			}
		})
	}
}

func TestFillWrapperKeepsTransactional(t *testing.T) {
	s := experiments.Tiny()
	tr := newTracer(specs[0])
	silo := s.NewApp("silo", 1)
	wrapped, ok := tr.wrapWorkload(silo).(workload.Transactional)
	if !ok {
		t.Fatal("wrapped silo lost workload.Transactional")
	}
	if want := silo.(workload.Transactional).TxnAccesses(); wrapped.TxnAccesses() != want {
		t.Errorf("TxnAccesses = %d, want %d", wrapped.TxnAccesses(), want)
	}
	if _, ok := tr.wrapWorkload(s.NewApp("gups", 1)).(workload.Transactional); ok {
		t.Error("wrapped gups claims workload.Transactional")
	}
}

// TestHeldOutSeedRunsClean runs every workload at benchmark scale on a
// seed that was not used while tuning the benchmark: each VM must finish
// within the horizon, pass the audits and match its traced digest.
func TestHeldOutSeedRunsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload at benchmark scale")
	}
	const heldOutSeed = 7
	for _, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			chk := &checker{}
			for _, traced := range []bool{false, true} {
				r, err := runRep(sp, experiments.Quick(), heldOutSeed, traced)
				if err != nil {
					t.Fatal(err)
				}
				chk.check("run", r)
			}
			if chk.failed != 0 || len(chk.problems) > 0 {
				t.Fatalf("%d of %d VM runs failed: %v", chk.failed, chk.attempted, chk.problems)
			}
		})
	}
}

func TestCheckerCountsDigestMismatchAsFailure(t *testing.T) {
	ok := repResult{vmOK: []bool{true, true}, vmDigest: []string{"a", "b"}}
	chk := &checker{}
	if !chk.check("first", ok) {
		t.Fatal("reference run rejected")
	}
	bad := repResult{vmOK: []bool{true, true}, vmDigest: []string{"a", "c"}}
	if chk.check("second", bad) {
		t.Fatal("run with a differing digest accepted")
	}
	late := repResult{vmOK: []bool{false, true}, vmDigest: []string{"a", "b"}, problems: []string{"horizon"}}
	if chk.check("third", late) {
		t.Fatal("run with an unfinished VM accepted")
	}
	if chk.attempted != 6 || chk.failed != 2 {
		t.Errorf("attempted %d failed %d, want 6 and 2", chk.attempted, chk.failed)
	}
}

func TestQuantile(t *testing.T) {
	vs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {1, 4}, {0.9, 3.7}} {
		if got := quantile(vs, c.q); got < c.want-1e-9 || got > c.want+1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of no samples should be 0")
	}
}

// TestMetricNamesMatchBenchmarkJSON keeps the metrics a run reports in
// step with the names and units BENCHMARK.json declares.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit string }
	var bench struct {
		EndToEnd []decl `json:"end_to_end"`
		PerLayer []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}

	r := repResult{
		setup: 1, loop: 1, wall: 1, accesses: 1,
		counts: workCounts{Accesses: 1, Events: 1},
		layers: &layerTimes{LoopNS: 1, PolicyLayer: "tmm"},
	}
	plain, layered := newSamples(), newSamples()
	addRunSamples(plain, r)
	addLayerSamples(layered, r)
	addCountMetrics(layered, r.counts)

	for _, c := range []struct {
		kind     string
		declared []decl
		got      *samples
	}{{"end_to_end", bench.EndToEnd, plain}, {"per_layer", bench.PerLayer, layered}} {
		want := map[string]string{}
		for _, d := range c.declared {
			want[d.Name] = d.Unit
		}
		if !reflect.DeepEqual(c.got.units, want) {
			t.Errorf("%s: reported names and units %v, BENCHMARK.json declares %v", c.kind, c.got.units, want)
		}
	}
}
