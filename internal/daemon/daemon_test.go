package daemon

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"demeter/internal/sim"
)

// sampleConfig mirrors configs/serve.sample.json: two VMs with distinct
// tracker × policy pairings on a shared host.
const sampleConfig = `{
  "seed": 42,
  "tier": "pmem",
  "host_fmem_frames": 768,
  "host_smem_frames": 8192,
  "quantum": "5ms",
  "defaults": {
    "vcpus": 4, "fmem_frames": 96, "smem_frames": 512,
    "footprint_pages": 256,
    "tracker": {"kind": "abit", "period": "1ms"},
    "policy": {"kind": "heat", "period": "2ms", "migration_batch": 64}
  },
  "vms": [
    {
      "name": "vm0", "workload": "gups", "footprint_pages": 2000, "seed": 3,
      "fmem_frames": 256, "smem_frames": 2560,
      "tracker": {"kind": "abit", "period": "1ms"},
      "policy": {"kind": "heat", "period": "2ms"}
    },
    {
      "name": "vm1", "workload": "ycsb-a", "footprint_pages": 400, "seed": 5,
      "fmem_frames": 96, "smem_frames": 512,
      "tracker": {"kind": "pebs", "period": "1ms", "sample_period": 97},
      "policy": {"kind": "ranked", "period": "2ms"}
    }
  ]
}`

// sampleScript exercises every serve command, including live cluster
// reshaping mid-stream.
const sampleScript = `help
vms
run 5ms
stats
policy -dump accessed 0,1ms,5ms,0
tracker switch vm0 pebs
run 5ms
policy -dump accessed 0,1ms,5ms,0
vm add vm2 gups 200 abit threshold
run
stats
vm remove vm1
vms
run 5ms
stats
quit
`

func mustDaemon(t *testing.T, cfg string) *Daemon {
	t.Helper()
	c, err := ParseConfig(strings.NewReader(cfg))
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func runScript(t *testing.T, cfg, script string) string {
	t.Helper()
	d := mustDaemon(t, cfg)
	var out strings.Builder
	if err := d.Serve(strings.NewReader(script), &out); err != nil {
		t.Fatal(err)
	}
	return out.String()
}

// TestServeTranscriptDeterministic is the serve-mode golden contract: a
// config plus a command script replays to a byte-identical transcript,
// including across concurrent daemon instances (the property CI checks
// at -parallel 1, 4 and 8).
func TestServeTranscriptDeterministic(t *testing.T) {
	ref := runScript(t, sampleConfig, sampleScript)
	if !strings.Contains(ref, "bye.") {
		t.Fatal("transcript did not end the session")
	}
	if strings.Contains(ref, "error:") {
		t.Fatalf("script hit an error:\n%s", ref)
	}

	const instances = 8
	got := make([]string, instances)
	var wg sync.WaitGroup
	for i := 0; i < instances; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			d, err := New(mustParse(sampleConfig))
			if err != nil {
				got[i] = "new: " + err.Error()
				return
			}
			var out strings.Builder
			if err := d.Serve(strings.NewReader(sampleScript), &out); err != nil {
				got[i] = "serve: " + err.Error()
				return
			}
			got[i] = out.String()
		}(i)
	}
	wg.Wait()
	for i, g := range got {
		if g != ref {
			t.Fatalf("instance %d transcript diverged:\n--- want ---\n%s\n--- got ---\n%s", i, ref, g)
		}
	}
}

func mustParse(cfg string) Config {
	c, err := ParseConfig(strings.NewReader(cfg))
	if err != nil {
		panic(err) // test-only helper; config is a known-good constant
	}
	return c
}

// TestServeSubtestsParallel gives `go test -parallel N` real parallel
// work over the same transcript, so the CI matrix at widths 1/4/8
// exercises scheduler interleavings.
func TestServeSubtestsParallel(t *testing.T) {
	ref := runScript(t, sampleConfig, sampleScript)
	for i := 0; i < 8; i++ {
		t.Run(fmt.Sprintf("replica%d", i), func(t *testing.T) {
			t.Parallel()
			if g := runScript(t, sampleConfig, sampleScript); g != ref {
				t.Fatal("transcript diverged under parallel replay")
			}
		})
	}
}

// TestSnapshotConcurrentWithServe drives a serve session while other
// goroutines hammer Snapshot — the race detector run in CI proves the
// locking. Snapshots must always be internally consistent (sorted).
func TestSnapshotConcurrentWithServe(t *testing.T) {
	d := mustDaemon(t, sampleConfig)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				snap := d.Snapshot()
				for j := 1; j < len(snap.Metrics); j++ {
					a, b := snap.Metrics[j-1], snap.Metrics[j]
					if a.Name > b.Name {
						t.Error("snapshot not sorted")
						return
					}
				}
			}
		}()
	}
	var out strings.Builder
	if err := d.Serve(strings.NewReader(sampleScript), &out); err != nil {
		t.Error(err)
	}
	close(done)
	wg.Wait()
	if s := out.String(); strings.Contains(s, "error:") {
		t.Fatalf("script hit an error:\n%s", s)
	}
}

// TestServePairingsActuallyTier pins that the sample pairings do real
// tiering work under serve: after simulated runtime both VMs have spent
// migration CPU moving pages.
func TestServePairingsActuallyTier(t *testing.T) {
	d := mustDaemon(t, sampleConfig)
	var out strings.Builder
	if err := d.Serve(strings.NewReader("run 50ms\nquit\n"), &out); err != nil {
		t.Fatal(err)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, name := range d.order {
		if mig := d.vms[name].vm.Ledger.Total("migrate"); mig <= 0 {
			t.Errorf("%s: no migration CPU charged after 50ms", name)
		}
	}
}

// TestConfigErrors pins the panic-free config contract: every malformed
// config is an error, never a panic.
func TestConfigErrors(t *testing.T) {
	cases := map[string]string{
		"empty":            ``,
		"bad json":         `{`,
		"unknown key":      `{"host_fmem_frames":1,"host_smem_frames":1,"vms":[{"name":"a","workload":"gups","footprint_pages":1,"fmem_frames":8,"smem_frames":8,"policy":{"kind":"static"}}],"typo_key":1}`,
		"no vms":           `{"host_fmem_frames":64,"host_smem_frames":64,"vms":[]}`,
		"zero host":        `{"host_fmem_frames":0,"host_smem_frames":64,"vms":[{"name":"a"}]}`,
		"bad tier":         `{"tier":"tape","host_fmem_frames":64,"host_smem_frames":64,"vms":[{"name":"a"}]}`,
		"dup vm":           `{"host_fmem_frames":64,"host_smem_frames":64,"vms":[{"name":"a"},{"name":"a"}]}`,
		"unnamed vm":       `{"host_fmem_frames":64,"host_smem_frames":64,"vms":[{"name":""}]}`,
		"bad quantum":      `{"host_fmem_frames":64,"host_smem_frames":64,"quantum":"fast","vms":[{"name":"a"}]}`,
		"negative quantum": `{"host_fmem_frames":64,"host_smem_frames":64,"quantum":"-5ms","vms":[{"name":"a"}]}`,
		"NaN quantum":      `{"host_fmem_frames":64,"host_smem_frames":64,"quantum":"NaNms","vms":[{"name":"a"}]}`,
	}
	for name, cfg := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := ParseConfig(strings.NewReader(cfg)); err == nil {
				t.Errorf("config accepted: %s", cfg)
			}
		})
	}
}

// TestDaemonBuildErrors pins New's validation: configs that parse but
// cannot build report errors naming the offending VM.
func TestDaemonBuildErrors(t *testing.T) {
	base := `{"host_fmem_frames":512,"host_smem_frames":4096,"vms":[%s]}`
	cases := map[string]string{
		"unknown workload": `{"name":"a","workload":"fortnite","footprint_pages":10,"fmem_frames":8,"smem_frames":64,"tracker":{"kind":"abit"},"policy":{"kind":"heat"}}`,
		"unknown tracker":  `{"name":"a","workload":"gups","footprint_pages":10,"fmem_frames":8,"smem_frames":64,"tracker":{"kind":"sonar"},"policy":{"kind":"heat"}}`,
		"unknown policy":   `{"name":"a","workload":"gups","footprint_pages":10,"fmem_frames":8,"smem_frames":64,"tracker":{"kind":"abit"},"policy":{"kind":"vibes"}}`,
		"missing tracker":  `{"name":"a","workload":"gups","footprint_pages":10,"fmem_frames":8,"smem_frames":64,"tracker":{"kind":"none_dont_default"},"policy":{"kind":"heat"}}`,
		"bad period":       `{"name":"a","workload":"gups","footprint_pages":10,"fmem_frames":8,"smem_frames":64,"tracker":{"kind":"abit","period":"soon"},"policy":{"kind":"heat"}}`,
		"oversized vm":     `{"name":"a","workload":"gups","footprint_pages":10,"fmem_frames":1024,"smem_frames":8192,"tracker":{"kind":"abit"},"policy":{"kind":"heat"}}`,
		"age window flip":  `{"name":"a","workload":"gups","footprint_pages":10,"fmem_frames":8,"smem_frames":64,"tracker":{"kind":"abit"},"policy":{"kind":"age","active_within":"10ms","idle_after":"1ms"}}`,
	}
	for name, vm := range cases {
		t.Run(name, func(t *testing.T) {
			cfg, err := ParseConfig(strings.NewReader(fmt.Sprintf(base, vm)))
			if err != nil {
				return // rejected even earlier: fine
			}
			if _, err := New(cfg); err == nil {
				t.Errorf("daemon built from bad vm spec: %s", vm)
			}
		})
	}
}

// TestCommandErrors pins the panic-free command loop: malformed input
// produces error lines and the session keeps going.
func TestCommandErrors(t *testing.T) {
	script := strings.Join([]string{
		"frobnicate",
		"run fast",
		"run NaNms",
		"run 1ms",
		"run 9223372036854775000ns",
		"run 1ms 2ms",
		"policy -dump accessed",
		"policy -dump accessed 5ms,1ms",
		"policy -dump accessed nope,0",
		"tracker switch vm0",
		"tracker switch ghost abit",
		"tracker switch vm0 sonar",
		"vm",
		"vm add onlyname",
		"vm add vm0 gups 100 abit heat",
		"vm add vmx gups 0 abit heat",
		"vm add vmx fortnite 100 abit heat",
		"vm add vmx gups 100 none heat",
		"vm remove ghost",
		"stats",
		"quit",
	}, "\n") + "\n"
	out := runScript(t, sampleConfig, script)
	wantErrors := 18
	if got := strings.Count(out, "error:"); got != wantErrors {
		t.Fatalf("want %d error lines, got %d:\n%s", wantErrors, got, out)
	}
	if !strings.Contains(out, "bye.") {
		t.Fatal("session did not survive to quit")
	}
}

// TestBareRunClockOverflow checks the clock-overflow guard on a bare run,
// which steps by the configured quantum and so names no duration on its
// command line: a near-max quantum errors once the clock has moved.
func TestBareRunClockOverflow(t *testing.T) {
	cfg := strings.Replace(sampleConfig, `"quantum": "5ms"`, `"quantum": "9223372036854774784ns"`, 1)
	if cfg == sampleConfig {
		t.Fatal("sample config has no quantum to replace")
	}
	out := runScript(t, cfg, "run 1ms\nrun\nquit\n")
	if !strings.Contains(out, "advanced to t=1.000ms") {
		t.Fatalf("run 1ms did not advance:\n%s", out)
	}
	if got := strings.Count(out, "error:"); got != 1 || !strings.Contains(out, "overflows the simulated clock") {
		t.Fatalf("want one clock-overflow error line, got:\n%s", out)
	}
	if !strings.Contains(out, "bye.") {
		t.Fatal("session did not survive to quit")
	}
}

// TestIdleAgeHistogramAccounts checks the dump's accounting: per VM the
// bucket counts sum to the mapped page count (every mapped page lands in
// exactly one bucket, unseen pages in the oldest).
func TestIdleAgeHistogramAccounts(t *testing.T) {
	d := mustDaemon(t, sampleConfig)
	var out strings.Builder
	if err := d.Serve(strings.NewReader("run 10ms\npolicy -dump accessed 0,1ms,4ms,0\nquit\n"), &out); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "error:") {
		t.Fatalf("dump failed:\n%s", out.String())
	}
	snap := d.Snapshot()
	for _, name := range []string{"vm0", "vm1"} {
		var sum float64
		for _, m := range snap.Matching("idle_age_pages") {
			if strings.HasPrefix(m.Labels, "vm="+name+",") {
				sum += m.Value
			}
		}
		d.mu.Lock()
		mapped := d.vms[name].vm.Proc.GPT.Mapped()
		d.mu.Unlock()
		if uint64(sum) != mapped {
			t.Errorf("%s: bucket sum %v != mapped %d", name, sum, mapped)
		}
	}
}

// TestVMRemoveFreesHostFrames checks teardown really releases capacity:
// remove a VM, add a same-sized one, and the host must accommodate it.
func TestVMRemoveFreesHostFrames(t *testing.T) {
	d := mustDaemon(t, sampleConfig)
	script := strings.Join([]string{
		"run 2ms",
		"vm remove vm1",
		"vm add vm3 silo 300 damon age",
		"run 2ms",
		"tracker switch vm3 idlepage",
		"run 2ms",
		"stats",
		"quit",
	}, "\n") + "\n"
	var out strings.Builder
	if err := d.Serve(strings.NewReader(script), &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if strings.Contains(s, "error:") {
		t.Fatalf("reshape script failed:\n%s", s)
	}
	if !strings.Contains(s, "vm3") {
		t.Fatalf("stats does not show the added VM:\n%s", s)
	}
	if strings.Contains(s, "vm1") && strings.Contains(strings.Split(s, "vm remove vm1")[1], "vm1  ") {
		t.Fatalf("removed VM still renders in stats:\n%s", s)
	}
}

func TestParseDuration(t *testing.T) {
	good := map[string]sim.Duration{
		"0":     0,
		"250ns": 250 * sim.Nanosecond,
		"10us":  10 * sim.Microsecond,
		"10µs":  10 * sim.Microsecond,
		"1.5ms": 1500 * sim.Microsecond,
		"2s":    2 * sim.Second,
		" 3ms ": 3 * sim.Millisecond,
	}
	for s, want := range good {
		got, err := parseDuration(s)
		if err != nil {
			t.Errorf("parseDuration(%q): %v", s, err)
		} else if got != want {
			t.Errorf("parseDuration(%q) = %v, want %v", s, got, want)
		}
	}
	for _, s := range []string{"", "5", "-5ms", "fast", "5m", "ms", "1.2.3s",
		"NaNms", "Infs", "1e300s", "9.3e18ns"} {
		if _, err := parseDuration(s); err == nil {
			t.Errorf("parseDuration(%q) accepted", s)
		}
	}
}
