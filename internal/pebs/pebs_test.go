package pebs

import (
	"testing"
	"testing/quick"

	"demeter/internal/sim"
	"demeter/internal/simrand"
)

func mustUnit(t *testing.T, cfg Config) *Unit {
	t.Helper()
	u, err := NewUnit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func armedUnit(t *testing.T, cfg Config) *Unit {
	t.Helper()
	u := mustUnit(t, cfg)
	if err := u.Arm(); err != nil {
		t.Fatal(err)
	}
	return u
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{SamplePeriod: 0, BufferEntries: 8, Version: 5},
		{SamplePeriod: 1, BufferEntries: 0, Version: 5},
		{SamplePeriod: 1, BufferEntries: 8, LatencyThreshold: -1, Version: 5},
	}
	for i, cfg := range bad {
		if _, err := NewUnit(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestPreV5RequiresEagerEPT(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Version = 4
	u := mustUnit(t, cfg)
	if err := u.Arm(); err == nil {
		t.Fatal("pre-v5 PEBS armed with lazy EPT (the erratum)")
	}
	cfg.EagerEPT = true
	u = mustUnit(t, cfg)
	if err := u.Arm(); err != nil {
		t.Fatalf("eager EPT workaround rejected: %v", err)
	}
}

func TestDisarmedUnitRecordsNothing(t *testing.T) {
	u := mustUnit(t, DefaultConfig())
	for i := 0; i < 10000; i++ {
		u.Record(1, 200, false)
	}
	if u.Stats().Qualifying != 0 || u.Buffered() != 0 {
		t.Fatal("disarmed unit produced activity")
	}
}

func TestSamplePeriod(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SamplePeriod = 10
	cfg.BufferEntries = 1000
	u := armedUnit(t, cfg)
	for i := 0; i < 100; i++ {
		u.Record(uint64(i), 200, false)
	}
	if got := u.Stats().Samples; got != 10 {
		t.Fatalf("samples = %d, want 100/10", got)
	}
}

func TestLatencyThresholdFiltersCacheHits(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SamplePeriod = 1
	u := armedUnit(t, cfg)
	u.Record(1, 54, true)   // L2 hit: below 64ns threshold
	u.Record(2, 69, true)   // DRAM
	u.Record(3, 177, false) // PMEM
	if u.Stats().Qualifying != 2 {
		t.Fatalf("qualifying = %d", u.Stats().Qualifying)
	}
	samples := u.Drain()
	if len(samples) != 2 || samples[0].GVPN != 2 || samples[1].GVPN != 3 {
		t.Fatalf("samples = %v", samples)
	}
}

func TestLoadLatencySeesBothTiers(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SamplePeriod = 1
	u := armedUnit(t, cfg)
	u.Record(1, 69, true)
	u.Record(2, 177, false)
	if len(u.Drain()) != 2 {
		t.Fatal("load-latency event should capture FMEM and SMEM accesses")
	}
}

func TestL3MissEventMissesFastTier(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Event = EventL3Miss
	cfg.SamplePeriod = 1
	u := armedUnit(t, cfg)
	u.Record(1, 69, true)   // FMEM: invisible to a miss event
	u.Record(2, 177, false) // SMEM
	samples := u.Drain()
	if len(samples) != 1 || samples[0].GVPN != 2 {
		t.Fatalf("samples = %v", samples)
	}
}

func TestPMIOnOvershootAndHandlerDrain(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SamplePeriod = 1
	cfg.BufferEntries = 4
	u := armedUnit(t, cfg)
	var drained int
	u.OnPMI = func() { drained += len(u.Drain()) }
	for i := 0; i < 10; i++ {
		u.Record(uint64(i), 200, false)
	}
	st := u.Stats()
	if st.PMIs == 0 {
		t.Fatal("no PMI despite overshoot")
	}
	if st.Dropped != 0 {
		t.Fatalf("dropped = %d despite PMI handler", st.Dropped)
	}
	if drained+u.Buffered() != 10 {
		t.Fatalf("lost samples: drained=%d buffered=%d", drained, u.Buffered())
	}
}

func TestDropWithoutPMIHandler(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SamplePeriod = 1
	cfg.BufferEntries = 4
	u := armedUnit(t, cfg)
	for i := 0; i < 10; i++ {
		u.Record(uint64(i), 200, false)
	}
	st := u.Stats()
	if st.Dropped != 6 {
		t.Fatalf("dropped = %d, want 6", st.Dropped)
	}
	if u.Buffered() != 4 {
		t.Fatalf("buffered = %d", u.Buffered())
	}
}

func TestDrainEmptiesBuffer(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SamplePeriod = 1
	u := armedUnit(t, cfg)
	u.Record(7, 200, false)
	s := u.Drain()
	if len(s) != 1 || s[0].GVPN != 7 || s[0].Latency != 200 {
		t.Fatalf("drain = %v", s)
	}
	if u.Drain() != nil {
		t.Fatal("second drain should be empty")
	}
	if u.Stats().Drains != 2 {
		t.Fatalf("drains = %d", u.Stats().Drains)
	}
}

func TestBufferIsolationBetweenUnits(t *testing.T) {
	// Two VMs' units must never share samples (the vmcs.debugctl
	// isolation property §2.3.2 establishes).
	cfg := DefaultConfig()
	cfg.SamplePeriod = 1
	a := armedUnit(t, cfg)
	b := armedUnit(t, cfg)
	a.Record(111, 200, false)
	if b.Buffered() != 0 {
		t.Fatal("sample leaked across units")
	}
	if s := b.Drain(); len(s) != 0 {
		t.Fatalf("unit b drained foreign samples: %v", s)
	}
	if s := a.Drain(); len(s) != 1 || s[0].GVPN != 111 {
		t.Fatalf("unit a lost its sample: %v", s)
	}
}

func TestDisarmStopsNewSamplesKeepsBuffered(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SamplePeriod = 1
	u := armedUnit(t, cfg)
	u.Record(1, 200, false)
	u.Disarm()
	u.Record(2, 200, false)
	s := u.Drain()
	if len(s) != 1 {
		t.Fatalf("samples = %v", s)
	}
}

func TestPropertySampleCountNeverExceedsQualifyingOverPeriod(t *testing.T) {
	err := quick.Check(func(accesses uint16, period uint8) bool {
		p := uint64(period)%64 + 1
		cfg := DefaultConfig()
		cfg.SamplePeriod = p
		cfg.BufferEntries = 1 << 16
		u, err := NewUnit(cfg)
		if err != nil {
			return false
		}
		if u.Arm() != nil {
			return false
		}
		for i := 0; i < int(accesses); i++ {
			u.Record(uint64(i), 200, false)
		}
		want := uint64(accesses) / p
		return u.Stats().Samples == want
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Fatal(err)
	}
}

func TestEventString(t *testing.T) {
	if EventLoadLatency.String() != "MEM_TRANS_RETIRED.LOAD_LATENCY" {
		t.Fatal("event string broken")
	}
}

// recordBatchEquivalent drives two identical units through the same access
// stream — one via scalar Record, one via RecordBatch over the given run
// lengths — and fails on the first divergence in stats or sample streams.
// Samples are drained every drainEvery runs (0: only at the end) and, with
// drainOnPMI, by an OnPMI handler. It returns the scalar unit's stats.
func recordBatchEquivalent(t *testing.T, cfg Config, runs [][3]uint64, drainEvery int, drainOnPMI bool) Stats {
	t.Helper()
	scalar, batched := armedUnit(t, cfg), armedUnit(t, cfg)
	var scalarSamples, batchedSamples []Sample
	if drainOnPMI {
		scalar.OnPMI = func() { scalarSamples = append(scalarSamples, scalar.Drain()...) }
		batched.OnPMI = func() { batchedSamples = append(batchedSamples, batched.Drain()...) }
	}
	drain := func() {
		scalarSamples = append(scalarSamples, scalar.Drain()...)
		batchedSamples = append(batchedSamples, batched.Drain()...)
	}
	var gvpn uint64
	for ri, r := range runs {
		count, lat, fast := r[0], sim.Duration(r[1]), r[2] == 1
		gvpns := make([]uint64, count)
		for i := range gvpns {
			gvpns[i] = gvpn
			gvpn++
		}
		for _, g := range gvpns {
			scalar.Record(g, lat, fast)
		}
		batched.RecordBatch(gvpns, lat, fast)
		if drainEvery > 0 && (ri+1)%drainEvery == 0 {
			drain()
		}
		if s, b := scalar.Stats(), batched.Stats(); s != b {
			t.Fatalf("run %d: stats diverge: scalar %+v, batched %+v", ri, s, b)
		}
		if s, b := scalar.CurrentPeriod(), batched.CurrentPeriod(); s != b {
			t.Fatalf("run %d: period diverges: scalar %d, batched %d", ri, s, b)
		}
	}
	drain()
	if len(scalarSamples) != len(batchedSamples) {
		t.Fatalf("sample counts diverge: scalar %d, batched %d", len(scalarSamples), len(batchedSamples))
	}
	for i := range scalarSamples {
		if scalarSamples[i] != batchedSamples[i] {
			t.Fatalf("sample %d diverges: scalar %+v, batched %+v", i, scalarSamples[i], batchedSamples[i])
		}
	}
	return scalar.Stats()
}

// seededRuns returns n runs of 1..maxLen accesses each, mixing latencies
// above and below the 64 ns threshold and both tiers.
func seededRuns(seed uint64, n int, maxLen uint64) [][3]uint64 {
	src := simrand.New(seed)
	lats := []uint64{10, 64, 90, 200}
	runs := make([][3]uint64, n)
	for i := range runs {
		runs[i] = [3]uint64{1 + src.Uint64n(maxLen), lats[src.Intn(len(lats))], src.Uint64n(2)}
	}
	return runs
}

// TestRecordBatchEquivalence pins the RecordBatch contract across period
// crossings, threshold filtering, media filtering, buffer overshoot (with
// and without a drain handler) and run lengths from 1 to several periods.
func TestRecordBatchEquivalence(t *testing.T) {
	base := Config{SamplePeriod: 7, LatencyThreshold: 64, BufferEntries: 5, Version: 5}
	runs := [][3]uint64{
		{3, 200, 0}, {1, 200, 1}, {20, 500, 0}, {2, 10, 0}, // below threshold
		{40, 200, 1}, {5, 64, 0}, {1, 63, 1}, {100, 90, 0}, {6, 200, 0},
	}
	t.Run("drops-without-handler", func(t *testing.T) {
		recordBatchEquivalent(t, base, runs, 0, false)
	})
	t.Run("drained-between-runs", func(t *testing.T) {
		recordBatchEquivalent(t, base, runs, 2, false)
	})
	t.Run("pmi-handler-drains", func(t *testing.T) {
		scalar, batched := armedUnit(t, base), armedUnit(t, base)
		scalar.OnPMI = func() { scalar.Drain() }
		batched.OnPMI = func() { batched.Drain() }
		gvpns := make([]uint64, 200)
		for i := range gvpns {
			gvpns[i] = uint64(i)
			scalar.Record(uint64(i), 200, false)
		}
		batched.RecordBatch(gvpns, 200, false)
		if s, b := scalar.Stats(), batched.Stats(); s != b {
			t.Fatalf("stats diverge under PMI drain: scalar %+v, batched %+v", s, b)
		}
	})
	t.Run("l3miss-filters-fast-runs", func(t *testing.T) {
		cfg := base
		cfg.Event = EventL3Miss
		recordBatchEquivalent(t, cfg, runs, 0, false)
	})
	// The bulk countdown also steps over adaptation-window boundaries: the
	// seeded mixes must both widen and narrow the period, or the case
	// proves nothing about them.
	t.Run("adaptive-bulk-countdown", func(t *testing.T) {
		cfg := base
		cfg.SamplePeriod = 3
		cfg.AdaptivePeriod = true
		cfg.AdaptWindow = 20
		cfg.StormPMIs = 2
		cfg.CalmWindows = 1
		cfg.MaxPeriodShift = 2
		for _, seed := range []uint64{1, 2, 3} {
			for _, drainOnPMI := range []bool{false, true} {
				runs := seededRuns(seed, 400, 3*cfg.AdaptWindow)
				s := recordBatchEquivalent(t, cfg, runs, 3, drainOnPMI)
				if s.Widenings == 0 || s.Narrowings == 0 {
					t.Errorf("seed %d, drainOnPMI %v: %d widenings, %d narrowings; want both", seed, drainOnPMI, s.Widenings, s.Narrowings)
				}
			}
		}
	})
	t.Run("disarmed-does-nothing", func(t *testing.T) {
		u := mustUnit(t, base)
		u.RecordBatch([]uint64{1, 2, 3}, 200, false)
		if u.Stats().Qualifying != 0 || u.Buffered() != 0 {
			t.Fatal("disarmed RecordBatch produced activity")
		}
	})
}
