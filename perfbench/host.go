package main

import (
	"os"
	"runtime"
	"runtime/debug"
	"syscall"
)

// mallocs returns the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// peakRSSMB returns the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KB
}

// provenance describes the build and host a result came from.
type provenance struct {
	GitRevision string `json:"git_revision"`
	GoVersion   string `json:"go_version"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	NumCPU      int    `json:"nproc"`
	Seed        int64  `json:"seed"`
	Workload    string `json:"workload"`
	Seconds     int    `json:"seconds"`
	Trace       bool   `json:"trace"`
	Params      any    `json:"params"`
	Rounds      int    `json:"rounds"`
}

// gitRevision is the revision the wrapper script found, else the one
// the Go toolchain stamped into the binary, else "unknown".
func gitRevision() string {
	if rev := os.Getenv("PERFBENCH_GIT_REV"); rev != "" {
		return rev
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func newProvenance(workload string, seed int64, seconds int, trace bool) provenance {
	return provenance{
		GitRevision: gitRevision(),
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
		Seed:        seed,
		Workload:    workload,
		Seconds:     seconds,
		Trace:       trace,
	}
}
