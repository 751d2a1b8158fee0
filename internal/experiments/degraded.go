package experiments

import (
	"fmt"

	"demeter/internal/core"
	"demeter/internal/fault"
	"demeter/internal/obs"
	"demeter/internal/stats"
)

func init() {
	register(Experiment{
		ID:    "degraded",
		Title: "Degraded-mode failover vs frozen delegation under agent crashes",
		Run:   Degraded,
	})
}

// degradedConfig is the shared scenario: agents crash repeatedly, the
// monitor detects and (in one arm) fails over to the host-side vTMM.
// Identical seed and schedule in both arms, so the fault streams match
// event for event and the only difference is what runs while degraded.
func degradedConfig(noFailover bool) ChaosConfig {
	return ChaosConfig{
		Seed: 7,
		// Rate 0.5 per epoch: the agent crashes almost immediately and
		// re-crashes right after every handback, so delegation is down for
		// most of the run and the degraded-mode policy dominates.
		Schedule:        fault.Schedule{core.FaultAgentCrash: 0.5},
		Ladder:          []float64{0, 1},
		VMs:             2,
		Floor:           0.01,
		Health:          true,
		HeartbeatEpochs: 1,
		NoFailover:      noFailover,
		// Silo's hot window drifts through the key space: with delegation
		// frozen the fast tier decays to stale pages, which is precisely
		// the failure mode failover must bound.
		Workloads: []string{"silo"},
	}
}

func slowShare(sn obs.Snapshot) float64 {
	accesses := sn.Total("vm_accesses")
	if accesses == 0 {
		return 0
	}
	return sn.Total("vm_slow_hits") / accesses
}

// Degraded quantifies what guest-delegation failover buys (§6 robustness
// argument): with agents crashing, a monitor that hands tiering to a
// host-side fallback must keep slow-tier residency strictly below the
// frozen-delegation baseline, where detection happens but nothing tiers
// while the agent is down.
func Degraded(s Scale) string {
	modes := []struct {
		name string
		cfg  ChaosConfig
	}{
		{"failover", degradedConfig(false)},
		{"frozen", degradedConfig(true)},
	}
	type outcome struct {
		rungs []RungResult
		err   error
	}
	// Each mode runs a whole chaos ladder, which fans its rungs out as
	// leaf runs, so the modes are coordinators, not leaves.
	results := make([]outcome, len(modes))
	FanOut(len(modes), func(i int) {
		rungs, err := RunChaosLadder(s, modes[i].cfg)
		results[i] = outcome{rungs, err}
	})

	out := "Degraded mode: agent crashes under health monitoring, failover vs frozen\n"
	out += fmt.Sprintf("(schedule %q, %d VMs, heartbeat every %d epochs)\n\n",
		modes[0].cfg.Schedule.String(), modes[0].cfg.VMs, modes[0].cfg.HeartbeatEpochs)

	tb := stats.NewTable("Slow-tier access share", "Mode", "Fault-free", "Crashing agents", "Throughput vs baseline")
	shares := make([]float64, len(modes))
	for i, m := range modes {
		r := results[i]
		if r.err != nil {
			return out + fmt.Sprintf("ERROR: %s arm failed: %v\n", m.name, r.err)
		}
		for _, rung := range r.rungs {
			for _, v := range rung.Violations {
				out += fmt.Sprintf("INVARIANT VIOLATED (%s, x%g): %s\n", m.name, rung.Mult, v)
			}
		}
		baseShare := slowShare(r.rungs[0].Snapshot)
		shares[i] = slowShare(r.rungs[1].Snapshot)
		ratio := 0.0
		if r.rungs[0].Throughput > 0 {
			ratio = r.rungs[1].Throughput / r.rungs[0].Throughput
		}
		tb.AddRow(m.name, fmt.Sprintf("%.4f", baseShare), fmt.Sprintf("%.4f", shares[i]),
			fmt.Sprintf("%.2fx", ratio))
	}
	out += tb.String()

	out += "\nPer-rung health accounting:\n"
	for i, m := range modes {
		out += fmt.Sprintf("--- %s ---\n%s", m.name, results[i].rungs[1].Report)
	}

	if shares[0] < shares[1] {
		out += fmt.Sprintf("\nFailover bounds slow-tier residency below frozen delegation: %.4f < %.4f.\n",
			shares[0], shares[1])
	} else {
		out += fmt.Sprintf("\nNOT BOUNDED: failover slow-tier share %.4f >= frozen %.4f.\n",
			shares[0], shares[1])
	}
	return out
}
