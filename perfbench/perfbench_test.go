package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"reflect"
	"runtime/pprof"
	"testing"
	"time"

	"twobssd/internal/histo"
	"twobssd/internal/sim"
)

func TestTailLeavesTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []int64 {
		s := make([]int64, n)
		for i := range s {
			s[i] = int64(i)
		}
		return s
	}
	capped := seq(1000)
	for i := 950; i < len(capped); i++ {
		capped[i] = 950 // a hard ceiling hit by 5% of the ops
	}
	for _, tc := range []struct {
		name   string
		s      []int64
		q      float64
		beyond int
		ok     bool
	}{
		{"10010 distinct", seq(10010), 0.999, 10, true},
		{"10000 distinct", seq(10000), 0.99, 99, true}, // p99.9 would leave 9
		{"1000 distinct", seq(1000), 0.95, 49, true},
		{"ceiling", capped, 0.9, 99, true}, // p99 and p95 sit on the ceiling
		{"too few", seq(19), 0, 0, false},
	} {
		at := func(q float64) float64 { return quantile(tc.s, q) }
		q, v, n, ok := pickTail(at, func(v float64) int { return sortedBeyond(tc.s, v) })
		if q != tc.q || n != tc.beyond || ok != tc.ok {
			t.Errorf("%s: tail p%v (%d beyond, ok %v); want p%v (%d beyond, ok %v)", tc.name, q*100, n, ok, tc.q*100, tc.beyond, tc.ok)
		}
		if ok && sortedBeyond(tc.s, v) < minBeyond {
			t.Errorf("%s: value %v has fewer than %d samples beyond", tc.name, v, minBeyond)
		}
	}
}

func TestHistBeyondMatchesQuantile(t *testing.T) {
	var h histo.H
	for i := 1; i <= 5000; i++ {
		h.Observe(sim.Duration(i * 100))
	}
	w := h.WindowSince(nil)
	v := histQuantile(w, 0.99)
	if n := histBeyond(w, v); n < 49 || n > 51 {
		t.Errorf("beyond p99 of 5000 samples = %d, want about 50", n)
	}
}

func TestQuantileInterpolatesAcrossTies(t *testing.T) {
	for _, tc := range []struct {
		s    []int64
		q    float64
		want float64
	}{
		{[]int64{5, 1, 4, 2, 3}, 0.5, 3.5}, // position 2.5 of distinct values
		{[]int64{1, 2, 3, 4, 5}, 1, 5},
		{[]int64{10, 10, 10, 20}, 0.5, 10 + 10*2.0/3}, // 2 of the 3 tied samples below
		{[]int64{10, 10, 10, 20}, 0, 10},
		{[]int64{7, 7}, 0.5, 7}, // no larger value to move towards
		{nil, 0.5, 0},
	} {
		if got := quantile(tc.s, tc.q); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("quantile(%v, %v) = %v, want %v", tc.s, tc.q, got, tc.want)
		}
	}
}

func TestHistQuantileInterpolatesInsideBucket(t *testing.T) {
	var h histo.H
	for i := 0; i < 100; i++ {
		h.Observe(1000) // one bucket: [2^(159/16), 2^(160/16)) = [977, 1024)
	}
	w := h.WindowSince(nil)
	lo, hi := math.Exp2(159.0/16), math.Exp2(160.0/16)
	p50 := histQuantile(w, 0.5)
	if math.Abs(p50-(lo+hi)/2) > 1e-9 {
		t.Errorf("p50 = %v, want the bucket middle %v", p50, (lo+hi)/2)
	}
	if histQuantile(histo.Window{}, 0.5) != 0 {
		t.Error("empty window must read 0")
	}
	// Two buckets: the median sits at the top of the lower one.
	h.Observe(4000)
	for i := 0; i < 99; i++ {
		h.Observe(4000)
	}
	if got := histQuantile(h.WindowSince(nil), 0.5); math.Abs(got-hi) > 1e-9 {
		t.Errorf("p50 over two buckets = %v, want %v", got, hi)
	}
}

func TestHostOpsPerSTakesMedianPerStep(t *testing.T) {
	ms := func(ds ...int) []time.Duration {
		var out []time.Duration
		for _, d := range ds {
			out = append(out, time.Duration(d)*time.Millisecond)
		}
		return out
	}
	// A slow spell hits a different step in each round; the per-step
	// medians (100 ms and 200 ms) leave it out.
	rounds := []*roundResult{
		{ops: 600, steps: ms(900, 200)},
		{ops: 600, steps: ms(100, 900)},
		{ops: 600, steps: ms(100, 200)},
	}
	for _, r := range rounds {
		for _, d := range r.steps {
			r.measure += d
		}
	}
	if got, want := hostOpsPerS(rounds), 2000.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("hostOpsPerS with steps = %v, want %v", got, want)
	}
	// Without steps it is the median over rounds of ops per second
	// (545, 600 and 2000).
	for _, r := range rounds {
		r.steps = nil
	}
	if got, want := hostOpsPerS(rounds), 600.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("hostOpsPerS without steps = %v, want %v", got, want)
	}
}

func TestMetricNames(t *testing.T) {
	var names []string
	for _, m := range e2eUnits {
		names = append(names, m.name)
	}
	for _, m := range layerMetrics() {
		names = append(names, m.name)
	}
	seen := map[string]bool{}
	for _, n := range names {
		if !metricName.MatchString(n) || len(n) > 64 {
			t.Errorf("metric name %q does not match %v", n, metricName)
		}
		if seen[n] {
			t.Errorf("metric name %q used twice", n)
		}
		seen[n] = true
	}
	for _, bad := range []string{"a/b", "x y", "", "p99.9%"} {
		if metricName.MatchString(bad) {
			t.Errorf("%q must not match", bad)
		}
	}
}

// ---- synthetic profile.proto encoding --------------------------------

func pvarint(b []byte, v uint64) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

func pfield(b []byte, num int, v uint64) []byte { return pvarint(pvarint(b, uint64(num)<<3), v) }

func pbytes(b []byte, num int, payload []byte) []byte {
	b = pvarint(b, uint64(num)<<3|2)
	return append(pvarint(b, uint64(len(payload))), payload...)
}

// synthProfile encodes a profile whose samples have the given stacks
// (leaf first; a stack entry of several names is one location with
// inlined frames, innermost first) and values.
func synthProfile(stacks [][][]string, values []int64) []byte {
	var out []byte
	strs := []string{"", "samples", "count"}
	str := func(s string) uint64 {
		for i, x := range strs {
			if x == s {
				return uint64(i)
			}
		}
		strs = append(strs, s)
		return uint64(len(strs) - 1)
	}
	out = pbytes(out, 1, pfield(pfield(nil, 1, str("samples")), 2, str("count")))
	funcs := map[string]uint64{}
	var locs []byte
	locID := uint64(0)
	for si, st := range stacks {
		var ids []byte
		for _, frames := range st {
			locID++
			loc := pfield(nil, 1, locID)
			for _, fn := range frames {
				id, ok := funcs[fn]
				if !ok {
					id = uint64(len(funcs) + 1)
					funcs[fn] = id
				}
				loc = pbytes(loc, 4, pfield(nil, 1, id))
			}
			locs = pbytes(locs, 4, loc)
			ids = pvarint(ids, locID)
		}
		sample := pbytes(nil, 1, ids) // packed location ids
		sample = pfield(sample, 2, uint64(values[si]))
		out = pbytes(out, 2, sample)
	}
	out = append(out, locs...)
	for fn, id := range funcs {
		out = pbytes(out, 5, pfield(pfield(nil, 1, id), 2, str(fn)))
	}
	for _, s := range strs {
		out = pbytes(out, 6, []byte(s))
	}
	return out
}

func TestBucketingSyntheticProfile(t *testing.T) {
	stacks := [][][]string{
		// Runtime work below repository code is charged to that code.
		{{"runtime.mallocgc"}, {"twobssd/internal/nand.(*Flash).programPage"}, {"twobssd/internal/sim.(*Env).Run"}},
		// Inlined frames: the innermost one decides.
		{{"twobssd/internal/wal.encodeHeader", "twobssd/internal/core.(*TwoBSSD).BASync"}},
		{{"runtime.scanobject"}, {"runtime.gcDrain"}, {"runtime.gcBgMarkWorker"}},
		{{"runtime.futex"}, {"runtime.findRunnable"}, {"runtime.schedule"}},
		{{"main.run"}},
		{{"twobssd/internal/histo.(*H).Observe"}, {"twobssd/internal/fleet.(*tenantRT).opBody"}},
	}
	values := []int64{40, 10, 20, 25, 3, 2}
	p, err := parseProfile(synthProfile(stacks, values))
	if err != nil {
		t.Fatal(err)
	}
	idx, err := p.valueIndex("samples")
	if err != nil {
		t.Fatal(err)
	}
	got := p.buckets(idx)
	want := map[string]int64{"nand": 40, "wal": 10, bucketGC: 20, bucketSched: 25, "perfbench": 3, "histo": 2}
	if len(got) != len(want) {
		t.Errorf("buckets = %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("bucket %s = %d, want %d", k, got[k], v)
		}
	}
	host := map[string]float64{}
	if err := hostSelf(host, got); err != nil {
		t.Fatal(err)
	}
	sum := host["runtime.sched_frac"] + host["runtime.gc_frac"] + host["other.host_self_frac"]
	for _, pkg := range profiledPackages {
		sum += host[pkg+".host_self_frac"]
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("host_self_frac buckets sum to %v, want 1", sum)
	}
	if host["other.host_self_frac"] != 0.02 {
		t.Errorf("other = %v, want 0.02 (histo)", host["other.host_self_frac"])
	}
}

func TestBucketingRealCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	x := 0.0
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		for i := 0; i < 1000; i++ {
			x += math.Sqrt(float64(i))
		}
	}
	pprof.StopCPUProfile()
	_ = x
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	idx, err := p.valueIndex("samples")
	if err != nil {
		t.Fatal(err)
	}
	var total, bucketed int64
	for _, s := range p.samples {
		total += s.values[idx]
	}
	for _, v := range p.buckets(idx) {
		bucketed += v
	}
	if total == 0 || bucketed != total {
		t.Errorf("buckets hold %d of %d samples", bucketed, total)
	}
}

// mapStore is an in-memory kvStore for exercising the durability check.
type mapStore map[string][]byte

func (m mapStore) get(_ *sim.Proc, k []byte) ([]byte, bool, error) {
	v, ok := m[string(k)]
	return v, ok, nil
}
func (m mapStore) put(_ *sim.Proc, k, v []byte) error {
	m[string(k)] = append([]byte(nil), v...)
	return nil
}

func TestVerifyCatchesLostAndPhantomUpdates(t *testing.T) {
	p := ycsbDefaults("kvaof", "ba")
	p.Records = 4
	r := newYCSBRun(p, 1, nil)
	store := mapStore{}
	r.kv = store
	val := make([]byte, p.ValueBytes)
	for k := int32(0); k < 4; k++ {
		if err := r.put(nil, val, k, 0); err != nil {
			t.Fatal(err)
		}
	}
	old := append([]byte(nil), store[string(r.keys[2])]...)
	if err := r.put(nil, val, 2, 0); err != nil { // a later, acknowledged update of key 2
		t.Fatal(err)
	}
	if err := r.verify(nil, store); err != nil {
		t.Fatalf("clean store: %v", err)
	}
	store[string(r.keys[2])] = old
	if err := r.verify(nil, store); !errors.Is(err, errLost) {
		t.Errorf("stale value: got %v, want %v", err, errLost)
	}
	store[string(r.keys[2])] = append(old[:len(old)-1:len(old)-1], old[len(old)-1]^1)
	if err := r.verify(nil, store); !errors.Is(err, errPhantom) {
		t.Errorf("corrupt value: got %v, want %v", err, errPhantom)
	}
	delete(store, string(r.keys[1]))
	if err := r.verify(nil, store); !errors.Is(err, errLost) {
		t.Errorf("missing key: got %v, want %v", err, errLost)
	}
}

// shortFleet and shortCrash are shortened workloads for the
// in-process determinism tests.
func shortFleet() fleetParams {
	fp := fleetDefaults()
	fp.OpsPerRate = 60
	fp.Rates = []float64{2500, 20000}
	fp.CrashAtUs = 1500
	return fp
}

func shortCrash() crashParams {
	cp := crashDefaults()
	cp.Points = 6
	return cp
}

func TestShortWorkloadsRepeatExactly(t *testing.T) {
	for _, tc := range []struct {
		name  string
		round func(seed int64) (*roundResult, error)
	}{
		{"fleet", func(s int64) (*roundResult, error) { return fleetRound(shortFleet(), s, nil) }},
		{"crash", func(s int64) (*roundResult, error) { return crashRound(shortCrash(), s, nil) }},
	} {
		a, err := tc.round(7)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		b, err := tc.round(7)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if name, ok := sameModeled(a, b); !ok {
			t.Errorf("%s: modeled metric %s differs between two runs of one seed", tc.name, name)
		}
		c, err := tc.round(8)
		if err != nil {
			t.Fatalf("%s seed 8: %v", tc.name, err)
		}
		if _, ok := sameModeled(a, c); ok {
			t.Errorf("%s: seeds 7 and 8 gave identical modeled metrics; the seed does not reach the generators", tc.name)
		}
	}
}

func TestShortYCSBRepeatsExactly(t *testing.T) {
	run := func(seed int64) ([]int64, sim.Duration) {
		p := ycsbDefaults("kvaof", "ba")
		p.Records, p.Ops = 512, 4000
		r := newYCSBRun(p, seed, nil)
		defer r.env.Shutdown()
		r.build()
		if err := r.load(); err != nil {
			t.Fatal(err)
		}
		var crashErr error
		elapsed, err := r.measure(func(p *sim.Proc) { _, _, _, crashErr = r.crashCheck(p) })
		if err != nil {
			t.Fatal(err)
		}
		if crashErr != nil {
			t.Fatal(crashErr)
		}
		return r.lat, elapsed
	}
	a, ea := run(3)
	b, eb := run(3)
	if ea != eb || len(a) != len(b) {
		t.Fatalf("elapsed %v vs %v, %d vs %d ops", ea, eb, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d: %d ns vs %d ns", i, a[i], b[i])
		}
	}
	if _, ec := run(4); ec == ea {
		t.Errorf("seeds 3 and 4 gave the same virtual elapsed time %v", ea)
	}
}

// TestBenchmarkJSONMatchesMetrics keeps the repository's BENCHMARK.json
// in step with the metrics and workloads the benchmark reports.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var e2e, layers []metric
	for _, m := range e2eUnits {
		e2e = append(e2e, metric{m.name, m.unit})
	}
	for _, m := range layerMetrics() {
		layers = append(layers, metric{m.name, m.unit})
	}
	if !reflect.DeepEqual(spec.EndToEnd, e2e) {
		t.Errorf("end_to_end %v, benchmark reports %v", spec.EndToEnd, e2e)
	}
	if !reflect.DeepEqual(spec.PerLayer, layers) {
		t.Errorf("per_layer differs from layerMetrics():\n%v\n%v", spec.PerLayer, layers)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the benchmark", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %s vs %s", i, w.Name, workloads[i].name)
		}
	}
}
