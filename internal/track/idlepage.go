package track

import "demeter/internal/sim"

// idleTracker models Linux's page_idle bitmap style of aging: each round
// it marks every visited page "idle" by clearing its A bit, and a page
// observed accessed on a later visit gets a fresh LastSeen. That is
// exactly the abit scan, so idleTracker runs it and only changes the read
// model: the feed is pure recency — Accesses is always 1 for a page ever
// seen active — so it pairs naturally with the age policy and the serve
// daemon's idle-age histogram (memtierd's `policy -dump accessed` view),
// and shows what frequency-driven policies lose when given recency only.
type idleTracker struct{ abitTracker }

const defaultIdleScanPeriod = 100 * sim.Millisecond

func newIdleTracker(cfg Config) (Tracker, error) {
	if cfg.Period == 0 {
		cfg.Period = defaultIdleScanPeriod
	}
	return &idleTracker{abitTracker{cfg: cfg, kind: "idlepage"}}, nil
}

func (t *idleTracker) Counters() []Counter {
	out := t.abitTracker.Counters()
	for i := range out {
		out[i].Accesses = 1
	}
	return out
}
