// Command bench2b regenerates the paper's tables and figures on the
// simulated 2B-SSD stack.
//
// Usage:
//
//	bench2b [-full] [-j N] [-seeds N] [-metrics m.json] [-trace out.trace.json] [-benchjson b.json] [-benchgate base.json] [-obsbench o.json] [-sample D] [-timeline t.json] [-listen addr] [-cpuprofile cpu.pprof] [-memprofile mem.pprof] [experiment ...]
//
// Experiments: tab1 fig7a fig7b fig8a fig8b fig9 fig10 commit waf
// mixed recovery tail smallread pmr journal qd probe ablations all
// (default: all).
//
// Eight reliability artifacts run only when named explicitly (they
// are not part of "all"): crash crash-smoke fuzz fuzz-smoke fleet
// fleet-smoke wal-life wal-life-smoke. "crash" sweeps 128
// deterministic power-loss points per workload across every storage
// engine (768 total, including the segmented-WAL lifecycle engine) and
// "crash-smoke" is the 96-point CI variant over lsm, pglite + walseg.
// Both exit non-zero when any crash point violates the durability
// contract (a committed record lost despite a persisted dump, or a
// phantom record recovered). "fuzz" replays -seeds randomized dual-path workloads
// (default 256) against the internal/oracle reference model and
// "fuzz-smoke" is the 32-seed CI variant; both exit non-zero on any
// stack/model divergence, after shrinking it to a minimal op trace.
// "fleet" runs the multi-device scenario family (a 4-device, 8-tenant
// fleet with tail-streamed segmented-WAL replication under steady,
// bursty, diurnal and saturating tenant traffic, plus an injected
// primary power loss with follower takeover) and "fleet-smoke" is the
// 2-device CI variant; both exit non-zero on any lost or phantom
// record, missed failover, or worker-count determinism divergence.
// "wal-life" is the segmented-WAL lifecycle evaluation: a feature
// table timing commit/group-commit/rotation/checkpoint/tail/recovery
// on the BA byte path vs the block+flush baseline, then 128 crash
// points per mode with rotation/checkpoint/truncation-instant
// triggers and torn-tail repair; "wal-life-smoke" is the 32-point CI
// variant, which additionally runs the sweep twice and fails on any
// byte-level nondeterminism.
//
// -j fans the independent simulation environments behind each
// experiment data point — and the experiments themselves — out across N
// workers (default: the number of CPUs). Every environment's virtual
// clock is its own; results and reports are bit-identical at any -j.
//
// -metrics writes a merged snapshot of every counter, gauge and latency
// histogram the run's environments recorded. -trace writes Chrome
// trace-event JSON of the virtual-time spans (open in Perfetto or
// chrome://tracing); each simulated environment is one trace process.
//
// -benchjson records the wall-clock performance of the simulator itself
// — events/sec, allocs/event, per-experiment wall time and event
// attribution (at -j 1), and the partitioned-vs-serial speedup probe
// (the fleet-steady fleet on one sim.Group worker vs one per CPU) — so
// kernel speedups and regressions are measured run over run, not
// asserted. -benchgate compares the run against a committed baseline
// (BENCH_kernel.json) and exits non-zero on a >20% events/sec drop or
// an allocs/event increase: the CI regression gate.
// -obsbench records the observability layer's own overhead (sampler
// and flight recorder on/off) in the same spirit (BENCH_obs.json).
//
// -sample enables virtual-time metric timelines: every environment's
// registry is snapshotted at the given virtual cadence into
// delta-encoded windows. -timeline writes the merged timeline (JSON,
// or CSV when the path ends in .csv); like every other artifact it is
// byte-identical at any -j.
//
// -listen serves the run live over HTTP: Prometheus text exposition at
// /metrics, the merged timeline at /timeline (and /timeline.csv), and
// Server-Sent-Events batch progress at /progress. The server keeps
// serving after the experiments finish, until interrupted (SIGINT),
// so the final state can still be scraped.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"sync/atomic"
	"syscall"
	"time"

	"twobssd/internal/bench"
	"twobssd/internal/obs"
	"twobssd/internal/sim"
)

// crashExperiments returns the reliability artifacts. They are
// requested by name, never by "all": a full sweep crash-cycles the
// simulated device hundreds of times, which is a reliability gate, not
// a paper figure. A durability violation flips failed so main can exit
// non-zero after the reports print.
func crashExperiments(failed *atomic.Bool) []bench.Experiment {
	run := func(w io.Writer, names []string, pointsPer int) {
		if err := bench.RunCrash(w, names, pointsPer); err != nil {
			fmt.Fprintf(w, "FAIL: %v\n", err)
			failed.Store(true)
		}
	}
	return []bench.Experiment{
		{ID: "crash", Run: func(w io.Writer) { run(w, nil, 128) }},
		{ID: "crash-smoke", Run: func(w io.Writer) { run(w, []string{"lsm", "pglite", "walseg"}, 32) }},
	}
}

// walLifeExperiments returns the segmented-WAL lifecycle artifacts:
// "wal-life" is the full evaluation (feature table + 128 crash points
// per commit mode) and "wal-life-smoke" the 32-point CI variant with a
// byte-identity determinism check. Any durability or repair violation
// — or smoke-run nondeterminism — flips failed so main exits non-zero.
func walLifeExperiments(failed *atomic.Bool) []bench.Experiment {
	return []bench.Experiment{
		{ID: "wal-life", Run: func(w io.Writer) {
			if err := bench.RunWalLife(w, 128); err != nil {
				fmt.Fprintf(w, "FAIL: %v\n", err)
				failed.Store(true)
			}
		}},
		{ID: "wal-life-smoke", Run: func(w io.Writer) {
			if err := bench.RunWalLifeSmoke(w, 32); err != nil {
				fmt.Fprintf(w, "FAIL: %v\n", err)
				failed.Store(true)
			}
		}},
	}
}

// fuzzExperiments returns the oracle fuzzing artifacts; like the crash
// campaigns they run only when named. A divergence between the stack
// and the reference model flips failed so main exits non-zero after
// the shrunk trace prints.
func fuzzExperiments(failed *atomic.Bool, seeds int) []bench.Experiment {
	run := func(w io.Writer, n int) {
		if _, err := bench.RunFuzz(w, n); err != nil {
			fmt.Fprintf(w, "FAIL: %v\n", err)
			failed.Store(true)
		}
	}
	return []bench.Experiment{
		{ID: "fuzz", Run: func(w io.Writer) { run(w, seeds) }},
		{ID: "fuzz-smoke", Run: func(w io.Writer) { run(w, 32) }},
	}
}

// fleetExperiments returns the fleet-scale artifacts: "fleet" runs the
// full multi-device scenario family (steady/bursty/diurnal/saturation
// traffic plus an injected primary power loss on a 4-device, 8-tenant
// fleet) and "fleet-smoke" is the CI variant (2 devices, 2 tenants,
// one crash with follower takeover, plus a worker-count determinism
// probe). Any lost or phantom record, missed failover, or determinism
// divergence flips failed so main exits non-zero.
func fleetExperiments(failed *atomic.Bool, scale bench.Scale) []bench.Experiment {
	run := func(w io.Writer, smoke bool) {
		if err := bench.RunFleet(w, scale, smoke); err != nil {
			fmt.Fprintf(w, "FAIL: %v\n", err)
			failed.Store(true)
		}
	}
	return []bench.Experiment{
		{ID: "fleet", Run: func(w io.Writer) { run(w, false) }},
		{ID: "fleet-smoke", Run: func(w io.Writer) { run(w, true) }},
	}
}

// expReport is one experiment's cost in the -benchjson report. Under
// -j > 1 experiments overlap, so their wall times can sum past the
// run's total — and the per-experiment event/alloc attribution
// (schema v2) is only recorded at -j 1, where the deltas between
// experiments are unambiguous.
type expReport struct {
	ID             string  `json:"id"`
	WallNs         int64   `json:"wall_ns"`
	Events         uint64  `json:"events,omitempty"`
	EventsPerSec   float64 `json:"events_per_sec,omitempty"`
	AllocsPerEvent float64 `json:"allocs_per_event,omitempty"`
}

// kernelReport is the -benchjson wall-clock performance record.
type kernelReport struct {
	Schema         string                 `json:"schema"`
	Scale          string                 `json:"scale"`
	GoVersion      string                 `json:"go_version"`
	NumCPU         int                    `json:"num_cpu"`
	Jobs           int                    `json:"jobs"`
	Experiments    []expReport            `json:"experiments"`
	WallNs         int64                  `json:"wall_ns"`
	VirtualNs      int64                  `json:"virtual_ns"`
	Events         uint64                 `json:"events"`
	EventsPerSec   float64                `json:"events_per_sec"`
	AllocsPerEvent float64                `json:"allocs_per_event"`
	Partition      *bench.PartitionReport `json:"partition,omitempty"`
	Steady         *bench.SteadyReport    `json:"steady_state,omitempty"`
}

// gate compares this run against a committed baseline report and
// returns an error on a kernel performance regression: a >20% drop in
// events/sec, an allocs/event increase beyond measurement noise (10%
// relative plus 0.02 absolute), or a partition-probe speedup that
// collapsed versus the baseline. The probe runs one worker per CPU, so
// the speedup comparison only makes sense between like hosts: when the
// baseline was recorded on a machine with a different CPU count it is
// skipped with a notice written to notes, so a multi-core runner
// doesn't false-fail against a 1-CPU baseline (or vice versa).
func gate(cur kernelReport, basePath string, notes io.Writer) error {
	data, err := os.ReadFile(basePath)
	if err != nil {
		return err
	}
	var base kernelReport
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("parsing %s: %w", basePath, err)
	}
	if base.Partition != nil && cur.Partition != nil && base.Partition.Speedup > 1 {
		switch {
		case base.NumCPU != runtime.NumCPU():
			fmt.Fprintf(notes, "benchgate: skipping partition-speedup check: baseline recorded on %d CPUs, host has %d\n",
				base.NumCPU, runtime.NumCPU())
		case cur.Partition.Speedup < 0.75*base.Partition.Speedup:
			return fmt.Errorf("partition speedup regressed: %.2fx vs baseline %.2fx",
				cur.Partition.Speedup, base.Partition.Speedup)
		}
	}
	if base.EventsPerSec > 0 && cur.EventsPerSec < 0.8*base.EventsPerSec {
		return fmt.Errorf("events/sec regressed: %.0f vs baseline %.0f (-%.1f%%)",
			cur.EventsPerSec, base.EventsPerSec,
			100*(1-cur.EventsPerSec/base.EventsPerSec))
	}
	if base.AllocsPerEvent > 0 && cur.AllocsPerEvent > 1.1*base.AllocsPerEvent+0.02 {
		return fmt.Errorf("allocs/event regressed: %.4f vs baseline %.4f",
			cur.AllocsPerEvent, base.AllocsPerEvent)
	}
	if base.Steady != nil && cur.Steady != nil &&
		cur.Steady.AllocsPerEvent > 1.1*base.Steady.AllocsPerEvent+0.02 {
		return fmt.Errorf("steady-state allocs/event regressed: %.4f vs baseline %.4f",
			cur.Steady.AllocsPerEvent, base.Steady.AllocsPerEvent)
	}
	return nil
}

func main() {
	full := flag.Bool("full", false, "run at full scale (slower, closer to the paper's run lengths)")
	jobs := flag.Int("j", runtime.NumCPU(), "experiment worker parallelism (results identical at any value)")
	metricsPath := flag.String("metrics", "", "write merged metrics snapshot JSON to this file")
	tracePath := flag.String("trace", "", "write Chrome trace-event JSON (Perfetto) to this file")
	benchPath := flag.String("benchjson", "", "write wall-clock kernel benchmark JSON to this file")
	obsbenchPath := flag.String("obsbench", "", "write observability-overhead benchmark JSON to this file")
	samplePeriod := flag.Duration("sample", 0, "virtual-time cadence for metric timelines (default 1ms when -timeline/-listen is given)")
	timelinePath := flag.String("timeline", "", "write the merged metric timeline to this file (.csv extension selects CSV, else JSON)")
	listenAddr := flag.String("listen", "", "serve /metrics, /timeline and /progress on this address; keeps serving after the run until interrupted")
	seeds := flag.Int("seeds", 256, "seed count for the fuzz experiment")
	benchGate := flag.String("benchgate", "", "compare this run against a baseline kernel benchmark JSON; exit non-zero on >20% events/sec drop or an allocs/event increase")
	cpuProfile := flag.String("cpuprofile", "", "write a host CPU profile (pprof) of the run to this file")
	memProfile := flag.String("memprofile", "", "write a host allocation profile (pprof, alloc_space) to this file after the run")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: bench2b [-full] [-j N] [-seeds N] [-metrics m.json] [-trace out.trace.json] [-benchjson b.json] [-benchgate base.json] [-obsbench o.json] [-sample D] [-timeline t.json] [-listen addr] [-cpuprofile cpu.pprof] [-memprofile mem.pprof] [experiment ...]\n")
		fmt.Fprintf(os.Stderr, "experiments: tab1 fig7a fig7b fig8a fig8b fig9 fig10 commit waf mixed recovery tail smallread pmr journal qd probe ablations all\n")
		fmt.Fprintf(os.Stderr, "reliability (not in \"all\"): crash crash-smoke fuzz fuzz-smoke fleet fleet-smoke wal-life wal-life-smoke\n")
	}
	flag.Parse()
	scale, scaleName := bench.Quick, "quick"
	if *full {
		scale, scaleName = bench.Full, "full"
	}
	bench.SetJobs(*jobs)

	// Host-side profiling: the kernel's wall-clock performance is a
	// first-class artifact (BENCH_kernel.json), so regressions must be
	// diagnosable from the shipped binary without code edits.
	var cpuFile *os.File
	if *cpuProfile != "" {
		cpuFile = createReport(*cpuProfile)
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			fmt.Fprintf(os.Stderr, "bench2b: cpuprofile: %v\n", err)
			os.Exit(1)
		}
	}
	finishProfiles := func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "bench2b: %v\n", err)
				os.Exit(1)
			}
		}
		if *memProfile != "" {
			f := createReport(*memProfile)
			runtime.GC() // flush recent frees so alloc_space is settled
			writeReport(f, func(w io.Writer) error {
				return pprof.Lookup("allocs").WriteTo(w, 0)
			})
		}
	}

	sampling := *samplePeriod > 0 || *timelinePath != "" || *listenAddr != ""

	// Open the report files before running anything: a bad path should
	// fail now, not after minutes of experiments.
	var col *obs.Collector
	var metricsFile, traceFile, benchFile, timelineFile, obsbenchFile *os.File
	if *obsbenchPath != "" {
		obsbenchFile = createReport(*obsbenchPath)
	}
	if *metricsPath != "" || *tracePath != "" || *benchPath != "" || *benchGate != "" || sampling {
		if *metricsPath != "" {
			metricsFile = createReport(*metricsPath)
		}
		if *tracePath != "" {
			traceFile = createReport(*tracePath)
		}
		if *benchPath != "" {
			benchFile = createReport(*benchPath)
		}
		if *timelinePath != "" {
			timelineFile = createReport(*timelinePath)
		}
		col = obs.NewCollector(traceFile != nil)
		if sampling {
			col.EnableSampling(sim.Duration(samplePeriod.Nanoseconds()), 0)
		}
	}

	// Serve mode: bind before running so a bad address fails fast and
	// the endpoints are live while the experiments execute.
	var live *obs.LiveServer
	var srv *http.Server
	if *listenAddr != "" {
		live = obs.NewLiveServer()
		live.Attach(col)
		ln, err := net.Listen("tcp", *listenAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench2b: %v\n", err)
			os.Exit(1)
		}
		srv = &http.Server{Handler: live.Handler()}
		go func() {
			if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
				fmt.Fprintf(os.Stderr, "bench2b: serve: %v\n", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "bench2b: serving observability on http://%s (interrupt to stop)\n", ln.Addr())
	}
	if col != nil {
		col.Install()
	}

	var gateFailed atomic.Bool
	all := bench.Experiments(scale)
	byID := make(map[string]bench.Experiment, len(all))
	for _, ex := range all {
		byID[ex.ID] = ex
	}
	for _, ex := range crashExperiments(&gateFailed) {
		byID[ex.ID] = ex
	}
	for _, ex := range fuzzExperiments(&gateFailed, *seeds) {
		byID[ex.ID] = ex
	}
	for _, ex := range fleetExperiments(&gateFailed, scale) {
		byID[ex.ID] = ex
	}
	for _, ex := range walLifeExperiments(&gateFailed) {
		byID[ex.ID] = ex
	}
	var selected []bench.Experiment
	args := flag.Args()
	if len(args) == 0 {
		if *obsbenchPath != "" {
			// An explicit -obsbench with no experiment list runs just
			// the overhead sweep, mirroring a targeted -benchjson run.
			args = nil
		} else {
			args = []string{"all"}
		}
	}
	for _, arg := range args {
		if arg == "all" {
			selected = append(selected, all...)
			continue
		}
		ex, ok := byID[arg]
		if !ok {
			fmt.Fprintf(os.Stderr, "bench2b: unknown experiment %q\n", arg)
			flag.Usage()
			os.Exit(2)
		}
		selected = append(selected, ex)
	}

	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	walls, expEvents, expMallocs := runAll(selected, *jobs, live, col)
	wallTotal := time.Since(start)
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)

	if obsbenchFile != nil {
		rep := bench.ObsOverhead(scale)
		if err := rep.WriteText(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "bench2b: %v\n", err)
			os.Exit(1)
		}
		writeReport(obsbenchFile, func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(rep)
		})
	}

	if col != nil {
		col.Uninstall()
		if metricsFile != nil {
			writeReport(metricsFile, col.WriteMetricsJSON)
		}
		if traceFile != nil {
			writeReport(traceFile, col.WriteTraceJSON)
		}
		if timelineFile != nil {
			emit := col.WriteTimelineJSON
			if len(*timelinePath) > 4 && (*timelinePath)[len(*timelinePath)-4:] == ".csv" {
				emit = col.WriteTimelineCSV
			}
			writeReport(timelineFile, emit)
		}
		if benchFile != nil || *benchGate != "" {
			rep := kernelReport{
				Schema:    "bench2b/kernel-v2",
				Scale:     scaleName,
				GoVersion: runtime.Version(),
				NumCPU:    runtime.NumCPU(),
				Jobs:      *jobs,
				WallNs:    wallTotal.Nanoseconds(),
				VirtualNs: int64(col.TotalVirtual()),
				Events:    col.TotalEvents(),
			}
			for i, ex := range selected {
				er := expReport{ID: ex.ID, WallNs: walls[i].Nanoseconds()}
				if expEvents != nil {
					er.Events = expEvents[i]
					if er.Events > 0 {
						er.EventsPerSec = float64(er.Events) / walls[i].Seconds()
						er.AllocsPerEvent = float64(expMallocs[i]) / float64(er.Events)
					}
				}
				rep.Experiments = append(rep.Experiments, er)
			}
			if rep.Events > 0 {
				rep.EventsPerSec = float64(rep.Events) / wallTotal.Seconds()
				rep.AllocsPerEvent = float64(ms1.Mallocs-ms0.Mallocs) / float64(rep.Events)
			}
			// Partitioned-vs-serial speedup probe: the same linked fleet
			// wall-clocked at one worker and at one worker per CPU, with
			// a result-identity check (the determinism bar).
			part, err := bench.PartitionSpeedup(scale)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench2b: %v\n", err)
				os.Exit(1)
			}
			rep.Partition = part
			fmt.Printf("partition probe: %d workers, %d devices, speedup %.2fx, identical=%v\n",
				part.Workers, part.Devices, part.Speedup, part.Identical)
			// Steady-state allocation probe: a sustained BA-WAL commit
			// stream on a warmed stack. The aggregate allocs/event above
			// includes per-experiment construction; this is the long-run
			// rate the allocation work targets.
			rep.Steady = bench.SteadyStateAllocs(scale)
			fmt.Printf("steady-state probe: %d events, %.4f allocs/event\n",
				rep.Steady.Events, rep.Steady.AllocsPerEvent)
			if benchFile != nil {
				writeReport(benchFile, func(w io.Writer) error {
					enc := json.NewEncoder(w)
					enc.SetIndent("", "  ")
					return enc.Encode(rep)
				})
			}
			if *benchGate != "" {
				if err := gate(rep, *benchGate, os.Stdout); err != nil {
					fmt.Fprintf(os.Stderr, "bench2b: benchgate: %v\n", err)
					gateFailed.Store(true)
				} else {
					fmt.Printf("benchgate: ok (%.0f events/sec, %.4f allocs/event vs %s)\n",
						rep.EventsPerSec, rep.AllocsPerEvent, *benchGate)
				}
			}
			if !rep.Partition.Identical {
				fmt.Fprintln(os.Stderr, "bench2b: partition probe: partitioned result diverged from serial")
				gateFailed.Store(true)
			}
		}
	}
	finishProfiles()
	if srv != nil {
		// Keep serving the finished run until interrupted, then shut
		// down gracefully (lets in-flight scrapes and the final SSE
		// events complete).
		live.Finish()
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		<-ctx.Done()
		stop()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			srv.Close()
		}
	}
	if gateFailed.Load() {
		fmt.Fprintln(os.Stderr, "bench2b: gate failed (durability violation, model divergence, or kernel performance regression)")
		os.Exit(1)
	}
}

// runAll executes the selected experiments and streams their output to
// stdout in selection order. At -j 1 everything runs sequentially on
// this goroutine (the legacy behavior); otherwise experiments run
// concurrently, each into its own buffer, and buffers are printed as
// their turn comes — output order never depends on scheduling. Returns
// each experiment's wall time, plus — sequentially only, where the
// deltas are unambiguous — each experiment's simulation events and
// host allocations (nil slices under -j > 1, or without a collector
// for the event counts). When live is non-nil, batch progress
// (done/total, current experiment) feeds the /progress stream.
func runAll(selected []bench.Experiment, jobs int, live *obs.LiveServer, col *obs.Collector) ([]time.Duration, []uint64, []uint64) {
	if live != nil {
		live.SetTotal(len(selected))
	}
	step := func(ex bench.Experiment, w io.Writer) time.Duration {
		if live != nil {
			live.SetLabel(ex.ID)
		}
		t0 := time.Now()
		ex.Run(w)
		if live != nil {
			live.StepDone()
		}
		return time.Since(t0)
	}
	walls := make([]time.Duration, len(selected))
	if jobs <= 1 || len(selected) == 1 {
		events := make([]uint64, len(selected))
		mallocs := make([]uint64, len(selected))
		var ms0, ms1 runtime.MemStats
		for i, ex := range selected {
			var ev0 uint64
			if col != nil {
				ev0 = col.TotalEvents()
			}
			runtime.ReadMemStats(&ms0)
			walls[i] = step(ex, os.Stdout)
			runtime.ReadMemStats(&ms1)
			if col != nil {
				events[i] = col.TotalEvents() - ev0
			}
			mallocs[i] = ms1.Mallocs - ms0.Mallocs
		}
		if col == nil {
			events = nil
		}
		return walls, events, mallocs
	}
	type slot struct {
		buf  bytes.Buffer
		done chan struct{}
	}
	slots := make([]*slot, len(selected))
	for i, ex := range selected {
		i, ex := i, ex
		slots[i] = &slot{done: make(chan struct{})}
		go func() {
			defer close(slots[i].done)
			walls[i] = step(ex, &slots[i].buf)
		}()
	}
	for _, s := range slots {
		<-s.done
		if _, err := io.Copy(os.Stdout, &s.buf); err != nil {
			fmt.Fprintf(os.Stderr, "bench2b: %v\n", err)
			os.Exit(1)
		}
	}
	return walls, nil, nil
}

func createReport(path string) *os.File {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench2b: %v\n", err)
		os.Exit(1)
	}
	return f
}

func writeReport(f *os.File, emit func(io.Writer) error) {
	if err := emit(f); err != nil {
		f.Close()
		fmt.Fprintf(os.Stderr, "bench2b: writing %s: %v\n", f.Name(), err)
		os.Exit(1)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "bench2b: %v\n", err)
		os.Exit(1)
	}
}
