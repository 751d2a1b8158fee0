package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// provenanceInfo says what was measured on what, following gem5's
// reproducibility guidance: enough to tell two records apart.
type provenanceInfo struct {
	Commit     string `json:"commit"`
	SourceSHA  string `json:"source_sha256"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	Seed       uint64 `json:"seed"`
	// TracingOverhead is traced over untraced accesses_per_s (medians)
	// within this measurement.
	TracingOverhead float64 `json:"tracing_overhead"`
}

func provenance(commit string, seed uint64, overhead float64) provenanceInfo {
	return provenanceInfo{
		Commit:          commit,
		SourceSHA:       sourceDigest("."),
		GoVersion:       runtime.Version(),
		GOMAXPROCS:      runtime.GOMAXPROCS(0),
		NumCPU:          runtime.NumCPU(),
		CPUModel:        cpuModel(),
		Seed:            seed,
		TracingOverhead: overhead,
	}
}

// sourceDigest hashes the Go sources and module files under root, so a
// record made outside a git checkout still names the code it measured.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(p)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, p+"\n")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// resetPeakRSS restarts the kernel's peak resident set size count at
// the current size. Where that is unsupported the peak stays the
// process's lifetime peak.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the peak resident set size (VmHWM) in MiB since the last
// resetPeakRSS, or 0 where /proc is unavailable.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// accessCheck sets the traced access-path cost beside the batched
// access microbenchmark's recorded baseline.
type accessCheck struct {
	TracedAccessNSPerAccess float64 `json:"traced_access_ns_per_access"`
	BaselineBatchNSPerOp    float64 `json:"baseline_access_batch_ns_per_op"`
}

// baselineFile is the microbenchmark record `demeter-sim bench
// -rebaseline` writes at the repository root.
const baselineFile = "BENCH_baseline.json"

func newAccessCheck(tracedNS float64) *accessCheck {
	c := &accessCheck{TracedAccessNSPerAccess: tracedNS}
	if b, err := os.ReadFile(baselineFile); err == nil {
		var base struct {
			AccessBatchNSPerOp float64 `json:"access_batch_ns_per_op"`
		}
		if json.Unmarshal(b, &base) == nil {
			c.BaselineBatchNSPerOp = base.AccessBatchNSPerOp
		}
	}
	return c
}
