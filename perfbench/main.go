// Command perfbench is the repository benchmark: workloads over the
// simulated 2B-SSD stack, each driven from outside through the layers'
// public functions, with end-to-end and per-layer metrics.
//
//	perfbench --workload ycsb-ba --seed 1 --seconds 10 --trace 0
//
// One invocation repeats the workload's round (set-up, measured phase,
// correctness checks) until --seconds have passed, at least minRounds
// times. Modeled (virtual-time) metrics repeat exactly for a seed, and
// every round must reproduce them bit for bit; host metrics are
// medians over rounds. With --trace 1 one more, traced round follows
// and the per-layer metrics are reported instead of the end-to-end
// ones. The last line of standard output is one JSON object with the
// keys correct, attempted, failed and metrics. A failed check exits
// non-zero and names the check. --workload all runs every workload.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

const minRounds = 3

// roundResult is one round of a workload: set-up, measured phase and
// checks.
type roundResult struct {
	setup   time.Duration   // host time before the first measured op
	measure time.Duration   // host time of the measured phase
	steps   []time.Duration // host time of each step of the measured phase, if it has steps
	mallocs uint64          // heap allocations in the measured phase
	ops     int             // measured ops attempted
	failed  int             // ops failed, refused or dropped
	events  uint64          // sim events in the measured phase

	// Modeled quantities: a seed fixes them exactly.
	e2e     map[string]float64 // end-to-end metrics
	samples map[string]int     // sample count behind an end-to-end metric
	notes   map[string]string  // how a metric was taken
	layers  map[string]float64 // per-layer metrics

	hostLayers map[string]float64 // per-layer host-time metrics
}

func newRoundResult() *roundResult {
	return &roundResult{
		e2e:        map[string]float64{},
		samples:    map[string]int{},
		notes:      map[string]string{},
		layers:     map[string]float64{},
		hostLayers: map[string]float64{},
	}
}

// setLatency fills op_p50_us and op_tail_us from n per-op latency
// samples; at returns the q-quantile and beyond counts the samples
// above a value, both in virtual ns. The tail is the highest
// percentile with at least minBeyond samples beyond it.
func (r *roundResult) setLatency(n int, at func(q float64) float64, beyond func(v float64) int, where string) {
	r.e2e["op_p50_us"] = at(0.5) / 1e3
	r.samples["op_p50_us"] = n
	if q, v, nb, ok := pickTail(at, beyond); ok {
		r.e2e["op_tail_us"] = v / 1e3
		r.notes["op_tail_us"] = fmt.Sprintf("p%g%s, %d samples beyond", q*100, where, nb)
	}
	r.samples["op_tail_us"] = n
}

// setSampleLatency is setLatency over exact per-op samples (ns).
func (r *roundResult) setSampleLatency(lat []int64, where string) {
	r.setLatency(len(lat), func(q float64) float64 { return quantile(lat, q) },
		func(v float64) int { return sortedBeyond(lat, v) }, where)
}

// setupRepeats is how often a workload with a short set-up repeats it
// per round; the round reports the median.
const setupRepeats = 5

// medianSetup runs a set-up step setupRepeats times and returns its
// median host time.
func medianSetup(step func() error) (time.Duration, error) {
	var ts []float64
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		if err := step(); err != nil {
			return 0, err
		}
		ts = append(ts, float64(time.Since(t0)))
	}
	return time.Duration(median(ts)), nil
}

// workload is one benchmark workload.
type workload struct {
	name   string
	why    string
	params func() any
	round  func(seed int64, sp *spans) (*roundResult, error)
}

var workloads = []workload{
	{
		name:   "ycsb-ba",
		why:    "YCSB-A on the Redis-like store, log committed over the 2B-SSD byte path (Fig 9 headline)",
		params: func() any { return ycsbDefaults("kvaof", "ba") },
		round: func(seed int64, sp *spans) (*roundResult, error) {
			return ycsbRound(ycsbDefaults("kvaof", "ba"), seed, sp)
		},
	},
	{
		name:   "ycsb-block",
		why:    "same traffic, log committed by block write + flush on the same 2B-SSD (ULL-SSD baseline)",
		params: func() any { return ycsbDefaults("kvaof", "block") },
		round: func(seed int64, sp *spans) (*roundResult, error) {
			return ycsbRound(ycsbDefaults("kvaof", "block"), seed, sp)
		},
	},
	{
		name:   "fleet-open",
		why:    "4 devices x 8 tenants, open-loop Poisson rate ladder, tail-streamed replication, QoS leases, one failover",
		params: func() any { return fleetDefaults() },
		round: func(seed int64, sp *spans) (*roundResult, error) {
			return fleetRound(fleetDefaults(), seed, sp)
		},
	},
	{
		name:   "crash-sweep",
		why:    "fault-campaign crash points over walseg (BA path, dump cuts, torn-tail repair), lsm and pglite",
		params: func() any { return crashDefaults() },
		round: func(seed int64, sp *spans) (*roundResult, error) {
			return crashRound(crashDefaults(), seed, sp)
		},
	},
}

// extraWorkloads run by name but are not part of "all".
var extraWorkloads = []workload{
	{
		name:   "ycsb-lsm",
		why:    "YCSB-A on the LSM engine at 16x its memtable (BA log): reproduces the engine's concurrent-compaction defect",
		params: func() any { return ycsbDefaults("lsm", "ba") },
		round: func(seed int64, sp *spans) (*roundResult, error) {
			return ycsbRound(ycsbDefaults("lsm", "ba"), seed, sp)
		},
	},
}

func allWorkloads() []workload {
	return append(append([]workload(nil), workloads...), extraWorkloads...)
}

func findWorkload(name string) (workload, bool) {
	for _, w := range allWorkloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// e2eUnits lists the end-to-end metrics in report order.
var e2eUnits = []struct{ name, unit string }{
	{"host_ops_per_s", "ops/s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"allocs_per_op", "allocs"},
	{"op_p50_us", "us"},
	{"op_tail_us", "us"},
	{"modeled_ops_per_s", "ops/s"},
	{"write_amp", "ratio"},
	{"recovery_ms", "ms"},
}

// metricOut is one reported metric.
type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// checkError is a failed correctness check; its name is reported.
type checkError struct {
	check string
	err   error
}

func (e *checkError) Error() string { return fmt.Sprintf("check %s failed: %v", e.check, e.err) }
func (e *checkError) Unwrap() error { return e.err }

func checkFail(check string, err error) error { return &checkError{check: check, err: err} }

// sameModeled reports the first modeled metric that differs between
// two rounds, comparing bit patterns.
func sameModeled(a, b *roundResult) (string, bool) {
	for _, pair := range [][2]map[string]float64{{a.e2e, b.e2e}, {a.layers, b.layers}} {
		if len(pair[0]) != len(pair[1]) {
			return "(metric set)", false
		}
		for k, v := range pair[0] {
			if w, ok := pair[1][k]; !ok || math.Float64bits(v) != math.Float64bits(w) {
				return k, false
			}
		}
	}
	return "", true
}

// safeRound runs one round, turning a panic inside the simulated
// program into an error so it is reported as a failed check.
func safeRound(w workload, seed int64, sp *spans) (rr *roundResult, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = checkFail(w.name+"-run", fmt.Errorf("panic: %v", v))
		}
	}()
	rr, err = w.round(seed, sp)
	var ce *checkError
	if err != nil && !errors.As(err, &ce) {
		err = checkFail(w.name+"-run", err)
	}
	return rr, err
}

// runRounds repeats a workload's round until the time budget is spent
// (at least minRounds times) and checks every round against the first.
func runRounds(w workload, seed int64, budget time.Duration) ([]*roundResult, error) {
	start := time.Now()
	var rounds []*roundResult
	for {
		// Start every round from a collected heap, so one round's
		// garbage neither inflates the next one's time nor its memory.
		runtime.GC()
		t0 := time.Now()
		rr, err := safeRound(w, seed, nil)
		if err != nil {
			return nil, err
		}
		if len(rounds) > 0 {
			if name, ok := sameModeled(rounds[0], rr); !ok {
				return nil, checkFail("seed-determinism", fmt.Errorf("round %d: modeled metric %s differs from round 0", len(rounds), name))
			}
		}
		rounds = append(rounds, rr)
		last := time.Since(t0)
		if len(rounds) >= minRounds && time.Since(start)+last > budget {
			return rounds, nil
		}
	}
}

// hostOpsPerS is the median over rounds of measured ops per host
// second. A measured phase made of steps takes the median over rounds
// of each step's time instead, so a slow spell of the host in one step
// does not weigh on the whole round.
func hostOpsPerS(rounds []*roundResult) float64 {
	if n := len(rounds[0].steps); n > 0 {
		var total float64
		for i := 0; i < n; i++ {
			var t []float64
			for _, r := range rounds {
				t = append(t, r.steps[i].Seconds())
			}
			total += median(t)
		}
		return float64(rounds[0].ops) / total
	}
	var v []float64
	for _, r := range rounds {
		v = append(v, float64(r.ops)/r.measure.Seconds())
	}
	return median(v)
}

// hostE2E aggregates the host end-to-end metrics over rounds.
func hostE2E(rounds []*roundResult) map[string]float64 {
	var setup, allocs []float64
	for _, r := range rounds {
		setup = append(setup, r.setup.Seconds())
		allocs = append(allocs, float64(r.mallocs)/float64(r.ops))
	}
	return map[string]float64{
		"host_ops_per_s": hostOpsPerS(rounds),
		"setup_s":        median(setup),
		"allocs_per_op":  median(allocs),
		"peak_rss_mb":    peakRSSMB(),
	}
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name, or all")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.IntVar(&o.seconds, "seconds", 10, "measuring time per workload")
	flag.IntVar(&trace, "trace", 0, "1: add a traced round and report per-layer metrics")
	flag.StringVar(&o.out, "out", filepath.Join(".bench_build", "perfbench-out"), "directory for result records, spans, traces and profiles")
	flag.Parse()
	o.trace = trace == 1
	if err := run(os.Stdout, o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, o options) error {
	if o.seconds < 1 || o.seconds > 600 {
		return fmt.Errorf("--seconds %d out of range", o.seconds)
	}
	var list []workload
	if o.workload == "all" {
		list = workloads
	} else if wl, ok := findWorkload(o.workload); ok {
		list = []workload{wl}
	} else {
		var names []string
		for _, wl := range allWorkloads() {
			names = append(names, wl.name)
		}
		return fmt.Errorf("unknown workload %q (want one of %s, all)", o.workload, strings.Join(names, ", "))
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	fmt.Fprintln(w, "durability: every ycsb-* commit is durable before the store acknowledges it, on both sides (ba: MMIO store + BA_SYNC; block: write + FLUSH)")
	final := result{Correct: true, Metrics: map[string]metricOut{}}
	for _, wl := range list {
		res, err := runWorkload(w, wl, o)
		if err != nil {
			return err
		}
		final.Attempted += res.Attempted
		final.Failed += res.Failed
		for k, v := range res.Metrics {
			if len(list) > 1 {
				k = wl.name + "." + k
			}
			final.Metrics[k] = v
		}
	}
	ba, okBA := final.Metrics["ycsb-ba.wal.commit_p50_us"]
	blk, okBlk := final.Metrics["ycsb-block.wal.commit_p50_us"]
	if okBA && okBlk && ba.Value > 0 {
		fmt.Fprintf(w, "reference: wal.commit_p50_us ycsb-block / ycsb-ba = %.1fx (%.3f / %.3f us, Commit only); "+
			"paper: commit overhead cut by up to 26x; bench2b commit: 15.21 / 0.79 us append+commit (19.2x); "+
			"Fig 7 calibration: ULL-SSD 4 KB read 13.2 us, write 10 us\n", blk.Value/ba.Value, blk.Value, ba.Value)
	}
	line, err := json.Marshal(final)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(line))
	return nil
}

// runWorkload runs one workload, prints its metrics and writes its
// result record.
func runWorkload(w io.Writer, wl workload, o options) (*result, error) {
	budget := time.Duration(o.seconds) * time.Second
	rounds, err := runRounds(wl, o.seed, budget)
	if err != nil {
		return nil, err
	}
	host := hostE2E(rounds) // before any traced round, which keeps traces in memory
	var layers map[string]float64
	if o.trace {
		if layers, err = traceLayers(wl, o, rounds); err != nil {
			return nil, err
		}
	}
	first := rounds[0]
	res := &result{Correct: true, Metrics: map[string]metricOut{}}
	for _, r := range rounds {
		res.Attempted += r.ops
		res.Failed += r.failed
	}
	fmt.Fprintf(w, "workload %s: %s\n", wl.name, wl.why)
	for _, m := range e2eUnits {
		v, ok := host[m.name]
		n, how := len(rounds), "median over rounds"
		if !ok {
			v, ok = first.e2e[m.name]
			n, how = first.samples[m.name], first.notes[m.name]
		}
		if !ok {
			return nil, checkFail("metric-present", fmt.Errorf("%s: %s not measured", wl.name, m.name))
		}
		fmt.Fprintf(w, "  %-34s %14.6g %-6s n=%d %s\n", m.name, v, m.unit, n, how)
		if !o.trace {
			res.Metrics[m.name] = metricOut{Value: v, Unit: m.unit}
		}
	}
	if o.trace {
		fmt.Fprintf(w, "per-layer metrics (%s):\n", wl.name)
		for _, m := range layerMetrics() {
			v := layers[m.name]
			fmt.Fprintf(w, "  %-34s %14.6g %s\n", m.name, v, m.unit)
			res.Metrics[m.name] = metricOut{Value: v, Unit: m.unit}
		}
	}
	for name := range res.Metrics {
		if !metricName.MatchString(name) {
			return nil, checkFail("metric-name", fmt.Errorf("%q", name))
		}
	}
	prov := newProvenance(wl.name, o.seed, o.seconds, o.trace)
	prov.Params = wl.params()
	prov.Rounds = len(rounds)
	pj, err := json.Marshal(prov)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "provenance %s\n", pj)
	rec := map[string]any{"provenance": prov, "correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": res.Metrics}
	path := filepath.Join(o.out, fmt.Sprintf("%s-seed%d-trace%d.json", wl.name, o.seed, b2i(o.trace)))
	if err := writeJSON(path, rec); err != nil {
		return nil, err
	}
	return res, nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
