// Command perfbench is the repository benchmark. It measures how fast
// the simulator runs three tiered-memory clusters of numVMs quick-scale
// VMs, each a closed-loop, fixed-work simulation from empty caches and
// page tables:
//
//	gups-tpp      GUPS under guest TPP (A-bit scanning)
//	gups-demeter  the same GUPS traffic under Demeter
//	silo-memtis   Silo OLTP transactions under Memtis (dense sampling)
//
// With -trace 0 it repeats untraced runs for -seconds and reports the
// end-to-end metrics; with -trace 1 it repeats traced runs and reports
// the per-layer split of the simulation loop's host time together with
// exact simulated-work counts. Every run is checked: each VM must finish
// within the horizon, pass the frame and mapping audits, and produce the
// same simulated-result digest as every other run of the workload and
// seed, traced or not. The last line of standard output is one JSON
// object; the lines before it are the full record (distributions,
// counts, digests and provenance). Run it through run.sh, which builds
// it first.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

func main() {
	name := flag.String("workload", "", "workload: gups-tpp, gups-demeter or silo-memtis")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "measurement budget in host seconds")
	trace := flag.Int("trace", 0, "1 reports the traced per-layer split, 0 the end-to-end metrics")
	commit := flag.String("commit", "unknown", "source commit, recorded as provenance")
	flag.Parse()

	sp, err := specByName(*name)
	if err != nil || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, trace %d, seconds %v)\n", *name, *trace, *seconds)
		os.Exit(2)
	}
	budget := time.Duration(*seconds * float64(time.Second))
	out, err := measure(sp, *seed, budget, *trace == 1, *commit)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if err := printJSON(out.record); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if err := printJSON(out.result); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func printJSON(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n", b)
	return err
}
