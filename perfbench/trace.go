package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"twobssd/internal/obs"
)

// profiledPackages get their own host_self_frac metric; every other
// bucket is summed into other.host_self_frac.
var profiledPackages = []string{
	"sim", "device", "ftl", "nand", "pcie", "core", "wal", "kvaof", "lsm",
	"fleet", "traffic", "fault", "pglite", "obs", "perfbench",
}

// layerMetric is one per-layer metric with its unit.
type layerMetric struct{ name, unit string }

// layerMetrics lists every per-layer metric in report order. A metric
// of a layer the workload does not exercise reads 0.
func layerMetrics() []layerMetric {
	m := []layerMetric{
		{"sim.events_per_op", "count"}, {"sim.events_per_s", "1/s"},
		{"runtime.sched_frac", "ratio"}, {"runtime.gc_frac", "ratio"},
		{"device.log.write_cmds_per_op", "count"}, {"device.log.flush_cmds_per_op", "count"},
		{"device.log.write_cmd_p50_us", "us"}, {"device.log.flush_p99_us", "us"},
		{"device.data.read_cmd_p50_us", "us"},
		{"ftl.host_per_nand_write", "ratio"}, {"ftl.gc_relocations_per_op", "count"},
		{"ftl.gc_pause_p99_us", "us"},
		{"nand.programs_per_op", "count"}, {"nand.erases_per_op", "count"},
		{"nand.program_p99_us", "us"}, {"nand.die_busy_frac", "ratio"},
		{"pcie.mmio_writes_per_op", "count"}, {"pcie.wc_evictions_per_op", "count"},
		{"pcie.write_verify_reads_per_op", "count"}, {"pcie.mmio_write_p50_us", "us"},
		{"pcie.sync_p50_us", "us"}, {"pcie.sync_p99_us", "us"},
		{"core.pins_per_op", "count"}, {"core.pages_flushed_per_op", "count"},
		{"core.flush_p50_us", "us"}, {"core.gate_rejects", "count"},
		{"core.dump_ms", "ms"}, {"core.poweron_ms", "ms"}, {"core.alloc_mb", "MB"},
		{"wal.commit_p50_us", "us"}, {"wal.commit_p99_us", "us"},
		{"wal.commits_per_flush", "ratio"}, {"wal.pad_bytes_per_commit", "bytes"},
		{"wal.seg_rotations", "count"}, {"wal.seg_recover_p50_us", "us"},
		{"wal.seg_torn_repairs", "count"}, {"wal.alloc_mb", "MB"},
		{"engine.put_p50_us", "us"}, {"engine.put_p999_us", "us"},
		{"engine.get_p50_us", "us"}, {"engine.get_p999_us", "us"}, {"engine.open_ms", "ms"},
	}
	for _, r := range fleetDefaults().Rates {
		tag := fmt.Sprintf("r%.0f", r)
		m = append(m, layerMetric{"fleet.lat_p50_us." + tag, "us"}, layerMetric{"fleet.lat_p99_us." + tag, "us"})
	}
	m = append(m, []layerMetric{
		{"fleet.max_rate_at_slo", "ops/s"}, {"fleet.replag_p50_us", "us"},
		{"fleet.qos_wait_p99_us", "us"}, {"fleet.fairness_min", "ratio"},
		{"fleet.evictions_per_lease", "ratio"}, {"fleet.throttles_per_op", "count"},
		{"fleet.retries_per_op", "count"},
		{"fault.build_s_per_point", "s"}, {"fault.recover_s_per_point", "s"},
		{"fault.dump_persisted_frac", "ratio"}, {"fault.trips", "count"},
		{"pglite.recover_ms", "ms"},
		{"obs.tracing_overhead_frac", "ratio"},
	}...)
	for _, pkg := range profiledPackages {
		m = append(m, layerMetric{pkg + ".host_self_frac", "ratio"})
	}
	return append(m, layerMetric{"other.host_self_frac", "ratio"})
}

// traceCap bounds the program tracer of each environment, and
// traceEnvs the environments whose traces are kept and written (the
// first ones created): every environment is traced, but a kept one
// pins its whole device stack, and crash-sweep builds hundreds.
const (
	traceCap  = 1 << 12
	traceEnvs = 32
)

// minProfile is the least host time the traced rounds run, so the CPU
// profile holds enough samples to split by package.
const minProfile = 2 * time.Second

// tracedRounds runs rounds with every recorder on: benchmark spans
// (first round only), the program's obs tracer, a CPU profile and an
// allocation profile, repeating until minProfile has passed. Every
// traced round must match the untraced reference bit for bit. The
// artifacts are written to dir under prefix.
func tracedRounds(wl workload, seed int64, ref *roundResult, dir, prefix string) ([]*roundResult, map[string]float64, error) {
	sp := newSpans()
	col := obs.NewCollector(true)
	prev, n := obs.OnNewSet, 0
	obs.OnNewSet = func(s *obs.Set) {
		if n < traceEnvs {
			col.Collect(s)
		}
		n++
		s.EnableTracing().SetMaxEvents(traceCap)
		if prev != nil {
			prev(s)
		}
	}
	allocs0, err := profileBytes("allocs")
	if err != nil {
		return nil, nil, err
	}
	var cpu bytes.Buffer
	if err := pprof.StartCPUProfile(&cpu); err != nil {
		return nil, nil, err
	}
	var rounds []*roundResult
	var rerr error
	for start := time.Now(); rerr == nil && (len(rounds) == 0 || time.Since(start) < minProfile); {
		var rr *roundResult
		if rr, rerr = safeRound(wl, seed, sp); rerr == nil {
			if name, ok := sameModeled(ref, rr); !ok {
				rerr = checkFail("traced-modeled", fmt.Errorf("modeled metric %s differs between the traced and untraced runs", name))
			}
			rounds = append(rounds, rr)
		}
		if len(rounds) == 1 {
			if err := sp.write(filepath.Join(dir, prefix) + ".spans.jsonl"); err != nil {
				rerr = err
			}
			sp = nil
		}
	}
	pprof.StopCPUProfile()
	obs.OnNewSet = prev
	if rerr != nil {
		return nil, nil, rerr
	}
	allocs1, err := profileBytes("allocs")
	if err != nil {
		return nil, nil, err
	}

	host := map[string]float64{}
	cp, err := parseProfile(cpu.Bytes())
	if err != nil {
		return nil, nil, fmt.Errorf("cpu profile: %w", err)
	}
	idx, err := cp.valueIndex("samples")
	if err != nil {
		return nil, nil, err
	}
	cpuB := cp.buckets(idx)
	if err := hostSelf(host, cpuB); err != nil {
		return nil, nil, err
	}
	allocB, err := allocDelta(allocs0, allocs1)
	if err != nil {
		return nil, nil, err
	}
	perRound := float64(len(rounds)) * (1 << 20)
	host["core.alloc_mb"] = float64(allocB["core"]) / perRound
	host["wal.alloc_mb"] = float64(allocB["wal"]) / perRound

	base := filepath.Join(dir, prefix)
	for name, data := range map[string][]byte{".cpu.pprof": cpu.Bytes(), ".allocs.pprof": allocs1} {
		if err := os.WriteFile(base+name, data, 0o644); err != nil {
			return nil, nil, err
		}
	}
	f, err := os.Create(base + ".trace.json")
	if err != nil {
		return nil, nil, err
	}
	if err := col.WriteTraceJSON(f); err != nil {
		f.Close()
		return nil, nil, err
	}
	if err := f.Close(); err != nil {
		return nil, nil, err
	}
	return rounds, host, nil
}

func profileBytes(name string) ([]byte, error) {
	var b bytes.Buffer
	if err := pprof.Lookup(name).WriteTo(&b, 0); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// allocDelta buckets the bytes allocated between two cumulative
// allocation profiles.
func allocDelta(before, after []byte) (map[string]int64, error) {
	var bs [2]map[string]int64
	for i, data := range [][]byte{before, after} {
		p, err := parseProfile(data)
		if err != nil {
			return nil, fmt.Errorf("alloc profile: %w", err)
		}
		idx, err := p.valueIndex("alloc_space")
		if err != nil {
			return nil, err
		}
		bs[i] = p.buckets(idx)
	}
	for k, v := range bs[0] {
		bs[1][k] -= v
	}
	return bs[1], nil
}

// hostSelf turns CPU buckets into the host_self_frac metrics and
// checks that they account for every sample.
func hostSelf(host map[string]float64, b map[string]int64) error {
	fr := fractions(b)
	named := map[string]bool{bucketSched: true, bucketGC: true}
	for _, pkg := range profiledPackages {
		host[pkg+".host_self_frac"] = fr[pkg]
		named[pkg] = true
	}
	host["runtime.sched_frac"] = fr[bucketSched]
	host["runtime.gc_frac"] = fr[bucketGC]
	other := 0.0
	for k, v := range fr {
		if !named[k] {
			other += v
		}
	}
	host["other.host_self_frac"] = other
	sum := other + fr[bucketSched] + fr[bucketGC]
	for _, pkg := range profiledPackages {
		sum += fr[pkg]
	}
	if len(fr) == 0 || math.Abs(sum-1) > 1e-9 {
		return checkFail("profile-buckets", fmt.Errorf("host_self_frac buckets sum to %v over %d buckets", sum, len(fr)))
	}
	return nil
}

// traceLayers runs the traced round after the untraced rounds, checks
// that tracing left every modeled metric bit-identical, and assembles
// the per-layer metrics: modeled ones from the traced round, host ones
// as medians over the untraced rounds, host_self_frac and alloc_mb
// from the traced round's profiles.
func traceLayers(wl workload, o options, rounds []*roundResult) (map[string]float64, error) {
	runtime.GC()
	traced, prof, err := tracedRounds(wl, o.seed, rounds[0], o.out, fmt.Sprintf("%s-seed%d", wl.name, o.seed))
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for k, v := range traced[0].layers {
		out[k] = v
	}
	for k, v := range prof {
		out[k] = v
	}
	hostVals := map[string][]float64{}
	for _, r := range rounds {
		hostVals["sim.events_per_s"] = append(hostVals["sim.events_per_s"], float64(r.events)/r.measure.Seconds())
		for k, v := range r.hostLayers {
			hostVals[k] = append(hostVals[k], v)
		}
	}
	for k, vs := range hostVals {
		out[k] = median(vs)
	}
	untraced, tracedOps := hostOpsPerS(rounds), hostOpsPerS(traced)
	out["obs.tracing_overhead_frac"] = 1 - tracedOps/untraced
	return out, nil
}
