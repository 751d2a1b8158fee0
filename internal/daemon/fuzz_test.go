package daemon

import (
	"os"
	"strings"
	"testing"
)

// FuzzParseConfig checks the serve config parser: it never panics, every
// config it accepts has a non-negative quantum, and every VM spec the
// daemon would build from it — each declared VM and the bare `vm add`
// spec, both merged with the defaults — either fails conversion with an
// error or yields no negative duration. The target only parses and
// converts: New would size frame arrays from fuzzed counts.
func FuzzParseConfig(f *testing.F) {
	sample, err := os.ReadFile("../../configs/serve.sample.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(sample))
	f.Add(`{"host_fmem_frames":64,"host_smem_frames":64,"quantum":"1.5ms","defaults":{"policy":{"kind":"age","active_within":"1ms","idle_after":"10ms"}},"vms":[{"name":"a"}]}`)
	f.Fuzz(func(t *testing.T, doc string) {
		c, err := ParseConfig(strings.NewReader(doc))
		if err != nil {
			return
		}
		q, err := parseOptionalDuration(c.Quantum, defaultQuantum)
		if err != nil {
			t.Fatalf("accepted config has a bad quantum %q: %v", c.Quantum, err)
		}
		if q < 0 {
			t.Fatalf("accepted config has quantum %q = %d", c.Quantum, q)
		}
		for _, v := range append(c.VMs, VMSpec{}) {
			spec := c.mergeSpec(v)
			if tc, err := spec.Tracker.trackConfig(spec.Seed); err == nil && tc.Period < 0 {
				t.Fatalf("vm %q: tracker period %q = %d", spec.Name, spec.Tracker.Period, tc.Period)
			}
			pc, err := spec.Policy.policyConfig()
			if err == nil && (pc.Period < 0 || pc.ActiveWithin < 0 || pc.IdleAfter < 0) {
				t.Fatalf("vm %q: policy durations %+v gave %d/%d/%d", spec.Name, spec.Policy, pc.Period, pc.ActiveWithin, pc.IdleAfter)
			}
		}
	})
}
