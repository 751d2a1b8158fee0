package track

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"strings"
	"testing"

	"demeter/internal/engine"
	"demeter/internal/hypervisor"
	"demeter/internal/mem"
	"demeter/internal/sim"
	"demeter/internal/workload"
)

// rig builds one machine+VM running a hot/cold GUPS so every tracker
// has a skewed access stream to observe.
func rig(t *testing.T) (*sim.Engine, *hypervisor.VM, *engine.Executor, *workload.GUPS) {
	t.Helper()
	eng := sim.NewEngine()
	m := hypervisor.NewMachine(eng, mem.PaperDRAMPMEM(128, 512))
	vm, err := m.NewVM(hypervisor.VMConfig{
		VCPUs: 4, GuestFMEM: 128, GuestSMEM: 512,
		FMEMBacking: 0, SMEMBacking: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	wl := workload.Must(workload.NewGUPS(300, 60_000, 3))
	return eng, vm, engine.NewExecutor(eng, vm, wl), wl
}

func testConfig(kind string) Config {
	return Config{
		Kind:         kind,
		Period:       2 * sim.Millisecond,
		SamplePeriod: 17,
		ScanBatch:    4096,
		Seed:         1,
	}
}

func TestTrackersObserveSkew(t *testing.T) {
	for _, kind := range Kinds() {
		t.Run(kind, func(t *testing.T) {
			eng, vm, x, wl := rig(t)
			tr, err := New(testConfig(kind))
			if err != nil {
				t.Fatal(err)
			}
			if tr.Name() != kind {
				t.Fatalf("Name() = %q, want %q", tr.Name(), kind)
			}
			if err := tr.Attach(eng, vm); err != nil {
				t.Fatal(err)
			}
			defer tr.Detach()
			if !engine.RunAll(eng, 100*sim.Second, x) {
				t.Fatal("workload did not finish")
			}
			counters := tr.Counters()
			if len(counters) == 0 {
				t.Fatal("no counters after a full run")
			}
			if !sort.SliceIsSorted(counters, func(i, j int) bool {
				return counters[i].StartGVPN < counters[j].StartGVPN
			}) {
				t.Fatal("counters not sorted by StartGVPN")
			}
			for _, c := range counters {
				if c.EndGVPN <= c.StartGVPN {
					t.Fatalf("empty counter span %+v", c)
				}
				if c.Accesses < 0 {
					t.Fatalf("negative access estimate %+v", c)
				}
				if c.LastSeen < 0 || c.LastSeen > eng.Now() {
					t.Fatalf("LastSeen %v outside [0, now=%v]", c.LastSeen, eng.Now())
				}
			}
			// Tracking is not free: every mechanism charges the track
			// component.
			if vm.Ledger.Total("track") <= 0 {
				t.Fatal("no tracking CPU charged")
			}
			// The frequency trackers must see the GUPS hot section as
			// hotter per page than the cold rest.
			if kind == "pebs" || kind == "abit" {
				hotStart, hotPages := wl.HotRange()
				base := wl.Region() >> 12
				hotLo, hotHi := base+hotStart, base+hotStart+hotPages
				var hotSum, coldSum float64
				var hotN, coldN int
				for _, c := range counters {
					if c.StartGVPN >= hotLo && c.EndGVPN <= hotHi {
						hotSum += c.Accesses
						hotN++
					} else {
						coldSum += c.Accesses
						coldN++
					}
				}
				if hotN == 0 {
					t.Fatal("tracker never saw the hot range")
				}
				hotRate := hotSum / float64(hotN)
				coldRate := coldSum / float64(coldN+1)
				if hotRate <= coldRate {
					t.Fatalf("hot per-page rate %.2f not above cold %.2f", hotRate, coldRate)
				}
			}
		})
	}
}

func TestTrackerCountersAreFreshSlices(t *testing.T) {
	eng, vm, x, _ := rig(t)
	tr, err := New(testConfig("abit"))
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Attach(eng, vm); err != nil {
		t.Fatal(err)
	}
	defer tr.Detach()
	engine.RunAll(eng, 100*sim.Second, x)
	a := tr.Counters()
	if len(a) == 0 {
		t.Fatal("no counters")
	}
	a[0].Accesses = -999
	b := tr.Counters()
	if b[0].Accesses == -999 {
		t.Fatal("Counters aliases internal state")
	}
}

func TestTrackerDoubleAttachErrors(t *testing.T) {
	for _, kind := range Kinds() {
		eng, vm, _, _ := rig(t)
		tr, err := New(testConfig(kind))
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Attach(eng, vm); err != nil {
			t.Fatalf("%s: first attach: %v", kind, err)
		}
		if err := tr.Attach(eng, vm); err == nil {
			t.Errorf("%s: double attach did not error", kind)
		} else if !strings.Contains(err.Error(), kind+" tracker") {
			t.Errorf("%s: double-attach error %q does not name the kind", kind, err)
		}
		tr.Detach()
		tr.Detach() // idempotent
	}
}

func TestTrackerDetachStopsActivity(t *testing.T) {
	eng, vm, x, _ := rig(t)
	tr, err := New(testConfig("abit"))
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Attach(eng, vm); err != nil {
		t.Fatal(err)
	}
	eng.Run(eng.Now() + 20*sim.Millisecond)
	tr.Detach()
	before := vm.Ledger.Total("track")
	if !engine.RunAll(eng, 100*sim.Second, x) {
		t.Fatal("did not finish")
	}
	if after := vm.Ledger.Total("track"); after != before {
		t.Fatalf("tracking CPU kept accruing after Detach: %v -> %v", before, after)
	}
}

func TestTrackerConfigErrors(t *testing.T) {
	cases := []Config{
		{Kind: "nope"},
		{Kind: ""},
		{Kind: "pebs", Period: -1},
		{Kind: "abit", ScanBatch: -4},
		{Kind: "damon", Period: -5},
	}
	for _, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

func TestTrackersAreDeterministic(t *testing.T) {
	run := func(kind string) []Counter {
		eng, vm, x, _ := rig(t)
		tr, err := New(testConfig(kind))
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Attach(eng, vm); err != nil {
			t.Fatal(err)
		}
		defer tr.Detach()
		engine.RunAll(eng, 100*sim.Second, x)
		return tr.Counters()
	}
	for _, kind := range Kinds() {
		a, b := run(kind), run(kind)
		if len(a) != len(b) {
			t.Fatalf("%s: counter sets differ in size: %d vs %d", kind, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: counter %d differs: %+v vs %+v", kind, i, a[i], b[i])
			}
		}
	}
}

// TestScanTrackerGolden pins the read models of all four trackers after
// a fixed run. The abit/idlepage digests were taken before idlepage became
// a view of the abit scan, the pebs/damon ones before damon's fold stopped
// re-sorting regions the profiler already keeps ordered, so each
// simplification is checked against the old code rather than only against
// itself.
func TestScanTrackerGolden(t *testing.T) {
	// Period 0 selects each kind's default cadence; sample 0 the default
	// PEBS period.
	cases := []struct {
		kind   string
		period sim.Duration
		batch  int
		sample uint64
		want   string
	}{
		{"abit", 2 * sim.Millisecond, 4096, 17, "300 counters 2f1ae2225733a928 track=1044150"},
		{"abit", 2 * sim.Millisecond, 64, 17, "300 counters 3c36e51af922891b track=238680"},
		{"abit", 0, 64, 17, "300 counters 60dc63c4c4f68a47 track=49500"},
		{"idlepage", 2 * sim.Millisecond, 4096, 17, "300 counters 039c3b536d2a2242 track=1044150"},
		{"idlepage", 2 * sim.Millisecond, 64, 17, "300 counters 5584519706bc5517 track=238680"},
		{"idlepage", 0, 64, 17, "128 counters ee98e2643b6a993d track=21120"},
		{"pebs", 2 * sim.Millisecond, 4096, 17, "300 counters c478bdc5b353e659 track=88675"},
		{"pebs", 2 * sim.Millisecond, 4096, 101, "201 counters e524a80e9c655fe4 track=14925"},
		{"pebs", 0, 4096, 0, "13 counters 60730afa4da1a850 track=350"},
		{"damon", 2 * sim.Millisecond, 4096, 17, "4 counters 8910ae3dc40c60f6 track=2232045"},
		{"damon", 0, 4096, 17, "1 counters 26c88e6269fe0112 track=74640"},
		{"damon", 20 * sim.Millisecond, 4096, 17, "8 counters b9c6db5cb939d505 track=229845"},
	}
	for _, c := range cases {
		eng, vm, x, _ := rig(t)
		cfg := testConfig(c.kind)
		cfg.Period, cfg.ScanBatch, cfg.SamplePeriod = c.period, c.batch, c.sample
		tr, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Attach(eng, vm); err != nil {
			t.Fatal(err)
		}
		if !engine.RunAll(eng, 100*sim.Second, x) {
			t.Fatal("workload did not finish")
		}
		// Idle time after the run lets scores decay and gives the
		// default cadences several rounds.
		eng.Run(eng.Now() + 250*sim.Millisecond)
		tr.Detach()
		h := sha256.New()
		counters := tr.Counters()
		for _, ctr := range counters {
			fmt.Fprintf(h, "%+v\n", ctr)
		}
		got := fmt.Sprintf("%d counters %x track=%d", len(counters), h.Sum(nil)[:8], vm.Ledger.Total("track"))
		if got != c.want {
			t.Errorf("%s period %v batch %d sample %d: got %q, want %q", c.kind, c.period, c.batch, c.sample, got, c.want)
		}
	}
}
