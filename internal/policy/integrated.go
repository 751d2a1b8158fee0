package policy

import (
	"fmt"

	"demeter/internal/core"
	"demeter/internal/damon"
	"demeter/internal/hypervisor"
	"demeter/internal/sim"
	"demeter/internal/tmm"
	"demeter/internal/track"
)

// integrated adapts the designs that bundle their own tracking —
// internal/tmm's six designs, core.Demeter and the DAMON-based policy —
// to the tracker × policy interface. The tracker argument is
// ignored: these designs ARE a tracker+policy pairing fused by
// construction, which is exactly the coupling this package exists to
// contrast with.
type integrated struct {
	kind   string
	inner  tmm.Policy
	active bool
}

// newIntegrated maps the generic policy Config onto each design's own
// knobs (Period → its dominant cadence, MigrationBatch → its batch) and
// validates everything that the designs' Attach methods would otherwise
// panic on, keeping the config path panic-free.
func newIntegrated(cfg Config) (Policy, error) {
	var inner tmm.Policy
	switch cfg.Kind {
	case "static":
		inner = tmm.NewStatic()
	case "tpp":
		c := tmm.DefaultTPPConfig()
		cfg.overrideScan(&c.ScanConfig)
		inner = tmm.NewTPP(c)
	case "tpph":
		c := tmm.DefaultTPPHConfig()
		cfg.overrideScan(&c)
		inner = tmm.NewTPPH(c)
	case "memtis":
		c := tmm.DefaultMemtisConfig()
		if cfg.Period != 0 {
			c.ClassifyPeriod = cfg.Period
			c.PollPeriod = cfg.Period / 10
			if c.PollPeriod <= 0 {
				c.PollPeriod = 1
			}
		}
		if cfg.MigrationBatch != defaultMigrationCap {
			c.MigrationBatch = cfg.MigrationBatch
		}
		if cfg.HotThreshold != 0 {
			if cfg.HotThreshold < 0 {
				return nil, fmt.Errorf("policy: negative hot threshold %v", cfg.HotThreshold)
			}
			c.HotThreshold = cfg.HotThreshold
		}
		inner = tmm.NewMemtis(c)
	case "nomad":
		c := tmm.DefaultNomadConfig()
		cfg.overrideScan(&c.ScanConfig)
		inner = tmm.NewNomad(c)
	case "vtmm":
		c := tmm.DefaultVTMMConfig()
		cfg.overrideScan(&c)
		inner = tmm.NewVTMM(c)
	case "demeter":
		c := core.DefaultConfig()
		if cfg.Period != 0 {
			c.EpochPeriod = cfg.Period
		}
		if cfg.MigrationBatch != defaultMigrationCap {
			c.MigrationBatch = cfg.MigrationBatch
		}
		if err := c.Validate(); err != nil {
			return nil, err
		}
		inner = core.New(c)
	case "damon":
		dcfg := damon.ScaledConfig(cfg.Period)
		hotBar := uint32(defaultHotThreshold)
		if cfg.HotThreshold > 0 {
			hotBar = uint32(cfg.HotThreshold)
		}
		p, err := damon.NewPolicy(dcfg, hotBar, cfg.MigrationBatch)
		if err != nil {
			return nil, fmt.Errorf("policy: damon: %w", err)
		}
		inner = p
	default:
		return nil, fmt.Errorf("policy: unknown integrated kind %q", cfg.Kind)
	}
	return &integrated{kind: cfg.Kind, inner: inner}, nil
}

// overrideScan maps Period and MigrationBatch onto an A-bit scanning
// design's scan config.
func (cfg Config) overrideScan(sc *tmm.ScanConfig) {
	if cfg.Period != 0 {
		sc.ScanPeriod = cfg.Period
	}
	if cfg.MigrationBatch != defaultMigrationCap {
		sc.MigrationBatch = cfg.MigrationBatch
	}
}

// Name returns the config kind, which a serve config can select again;
// the inner design's own name may differ (tpph's is "tpp-h").
func (a *integrated) Name() string { return a.kind }

func (a *integrated) Attach(eng *sim.Engine, vm *hypervisor.VM, _ track.Tracker) error {
	if a.active {
		return fmt.Errorf("policy: %s already attached", a.kind)
	}
	a.active = true
	a.inner.Attach(eng, vm)
	return nil
}

func (a *integrated) Detach() {
	if !a.active {
		return
	}
	a.active = false
	a.inner.Detach()
}
