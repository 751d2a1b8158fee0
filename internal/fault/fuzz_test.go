package fault_test

import (
	"testing"

	// The simulator packages register the delegation and balloon fault
	// points the CI -faults string names.
	_ "demeter/internal/balloon"
	_ "demeter/internal/core"
	"demeter/internal/fault"
)

// FuzzParseSchedule checks the -faults parser: it never panics, every
// schedule it accepts passes Validate (so no rate outside 0..1, NaN
// included, is ever armed), and an accepted schedule survives the
// canonical String round trip unchanged.
func FuzzParseSchedule(f *testing.F) {
	for _, seed := range []string{
		"",
		" test.alpha=0.1, test.beta=0.02 ",
		"test.alpha=1,test.beta=0",
		"test.alpha=1.5",
		"test.alpha",
		"guest.agent-crash=0.1,guest.agent-stall=0.1,guest.stale-stats=0.2,channel.wedge=0.1",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		s, err := fault.ParseSchedule(spec)
		if err != nil {
			return
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("ParseSchedule(%q) accepted an invalid schedule: %v", spec, err)
		}
		again, err := fault.ParseSchedule(s.String())
		if err != nil {
			t.Fatalf("ParseSchedule(%q) rejected its own canonical form: %v", s.String(), err)
		}
		if len(again) != len(s) {
			t.Fatalf("round trip of %q changed the point set: %v -> %v", spec, s, again)
		}
		for p, r := range s {
			if got, ok := again[p]; !ok || got != r {
				t.Fatalf("round trip of %q changed %s: %v -> %v", spec, p, r, got)
			}
		}
	})
}
