// Observability plumbing for the harness. Every leaf cluster run owns a
// private obs.Obs (same isolation rule as its private sim.Engine); at
// teardown the leaf's metrics snapshot flows two ways:
//
//   - into the running experiment's accumulator, which renders the
//     per-report "metrics snapshot" section. Leaves finish in
//     schedule-dependent order under -parallel, and float64 sums are not
//     associative, so the accumulator folds snapshots in a canonical
//     order (sorted by their JSON serialization) — that is what keeps
//     reports byte-identical at every -parallel setting.
//   - into the process-global collector behind the CLI's -metrics dump
//     and `top` subcommand (arrival-order merge; the global dump has no
//     byte-identity contract).
//
// Event journals are retained only when SetEventCapture(true) — ring
// buffers from hundreds of leaf runs are not worth holding by default.

package experiments

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"

	"demeter/internal/obs"
)

// obsAccum collects one experiment invocation's leaf snapshots. The
// pointer travels inside Scale (a value type), so every helper that
// receives the experiment's Scale contributes to the same accumulator.
type obsAccum struct {
	mu    sync.Mutex
	snaps []obs.Snapshot
}

func (a *obsAccum) add(s obs.Snapshot) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.snaps = append(a.snaps, s)
	a.mu.Unlock()
}

// accesses sums the vm_accesses counters of the experiment's leaf
// snapshots: the guest memory accesses all its cluster runs simulated.
func (a *obsAccum) accesses() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	var n uint64
	for _, s := range a.snaps {
		n += uint64(s.Total("vm_accesses"))
	}
	return n
}

// section renders the experiment's merged metrics, condensed across VMs
// and clusters. Snapshots are folded in canonical (JSON-sorted) order so
// the float sums — and with them the bytes — are schedule-independent.
func (a *obsAccum) section() string {
	if a == nil {
		return ""
	}
	a.mu.Lock()
	snaps := append([]obs.Snapshot(nil), a.snaps...)
	a.mu.Unlock()
	if len(snaps) == 0 {
		return ""
	}
	keys := make([]string, len(snaps))
	for i, s := range snaps {
		data, err := json.Marshal(s)
		if err != nil {
			panic(fmt.Sprintf("experiments: snapshot marshal: %v", err))
		}
		keys[i] = string(data)
	}
	order := make([]int, len(snaps))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return keys[order[i]] < keys[order[j]] })

	var merged obs.Snapshot
	for _, i := range order {
		merged = merged.Merge(snaps[i])
	}
	cond := merged.Condense()

	var b strings.Builder
	fmt.Fprintf(&b, "\nmetrics snapshot (%d cluster run(s), condensed):\n", len(snaps))
	for _, m := range cond.Metrics {
		switch m.Kind {
		case obs.KindCounter:
			fmt.Fprintf(&b, "  %-26s %d\n", m.Name, uint64(m.Value))
		case obs.KindGauge:
			fmt.Fprintf(&b, "  %-26s %.6g\n", m.Name, m.Value)
		case obs.KindHistogram:
			h := m.Hist
			fmt.Fprintf(&b, "  %-26s count=%d mean=%.6g p50=%.6g p99=%.6g max=%.6g\n",
				m.Name, h.Count, h.Mean, h.P50, h.P99, h.Max)
		}
	}
	return b.String()
}

// CapturedCluster is one leaf run's retained event journal.
type CapturedCluster struct {
	// Seq is the capture arrival ordinal (the trace pid).
	Seq int
	// Label names the run (experiment/design it belonged to).
	Label string
	// Events is the journal content, oldest first.
	Events []obs.Event
}

// Process-global collection (CLI surface). Every mutation is serialized
// by obsMu above the engine: leaves publish snapshots on teardown, the
// CLI drains between runs, and nothing inside a cluster run reads the
// tables — per-shard collection will replace this when the engine
// shards (see crossshard in DESIGN.md §9).
var (
	obsMu sync.Mutex //lint:allow crossshard the serialization point itself: every access to the tables below goes through it
	//lint:allow crossshard merged under obsMu at leaf teardown, drained between runs; never read inside a run
	obsGlobal obs.Snapshot
	//lint:allow crossshard appended under obsMu at leaf teardown, drained between runs; never read inside a run
	obsClusters []CapturedCluster
	//lint:allow crossshard toggled by the CLI before runs start, read under obsMu afterwards
	obsCapture bool
)

// SetEventCapture enables retention of per-cluster event journals for
// the -events export. Off by default: metrics merging is cheap, holding
// every leaf's ring buffer is not.
func SetEventCapture(on bool) {
	obsMu.Lock()
	obsCapture = on
	obsMu.Unlock()
}

// GlobalMetrics returns the merged metrics snapshot across every cluster
// run since the last reset.
func GlobalMetrics() obs.Snapshot {
	obsMu.Lock()
	defer obsMu.Unlock()
	return obsGlobal
}

// CapturedEvents returns the retained journals, sorted by (Label, Seq)
// for stable export order.
func CapturedEvents() []CapturedCluster {
	obsMu.Lock()
	out := append([]CapturedCluster(nil), obsClusters...)
	obsMu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Label != out[j].Label {
			return out[i].Label < out[j].Label
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}

// ResetObsCollection clears the global collector (tests).
func ResetObsCollection() {
	obsMu.Lock()
	obsGlobal = obs.Snapshot{}
	obsClusters = nil
	obsMu.Unlock()
}

// finishObs flushes one leaf run's observability at teardown: snapshot
// into the experiment accumulator and the global collector, journal into
// the capture list when enabled.
func (s Scale) finishObs(label string, o *obs.Obs) {
	snap := o.Reg.Snapshot()
	s.obsAcc.add(snap)
	obsMu.Lock()
	obsGlobal = obsGlobal.Merge(snap)
	if obsCapture {
		obsClusters = append(obsClusters, CapturedCluster{
			Seq: len(obsClusters), Label: label, Events: o.Journal.Events(),
		})
	}
	obsMu.Unlock()
}
