package main

import (
	"math"
	"regexp"
	"sort"

	"twobssd/internal/histo"
	"twobssd/internal/obs"
)

// metricName is the pattern every reported metric name must match.
var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// tailQuantiles are the candidate tail percentiles, highest first.
var tailQuantiles = []float64{0.999, 0.99, 0.95, 0.9, 0.5}

// minBeyond is how many samples must lie strictly beyond a reported
// tail percentile's value.
const minBeyond = 10

// pickTail returns the highest candidate percentile whose value has at
// least minBeyond samples strictly beyond it: at gives a percentile's
// value, beyond counts the samples above a value. Ties count for
// nothing, so a tail that sits on the largest observed value (a hard
// latency ceiling) falls back to a lower percentile. ok is false when
// no candidate qualifies.
func pickTail(at func(q float64) float64, beyond func(v float64) int) (q, v float64, n int, ok bool) {
	for _, q := range tailQuantiles {
		v := at(q)
		if n := beyond(v); n >= minBeyond {
			return q, v, n, true
		}
	}
	return 0, 0, 0, false
}

// sortedBeyond counts the samples of sorted greater than v.
func sortedBeyond(sorted []int64, v float64) int {
	return len(sorted) - sort.Search(len(sorted), func(i int) bool { return float64(sorted[i]) > v })
}

// quantile returns the q-quantile of samples (sorting them in place)
// by the rule histQuantile applies to buckets: the q·n-th sample
// position is interpolated linearly across its run of equal values,
// towards the next larger value. A model with quantized service times
// puts many samples on one value; the interpolation keeps the estimate
// moving with the share of samples on that value instead of sticking
// to it. Empty input reads 0.
func quantile(samples []int64, q float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	if !sort.SliceIsSorted(samples, func(i, j int) bool { return samples[i] < samples[j] }) {
		sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	}
	t := q * float64(n)
	i := int(t)
	if i >= n {
		return float64(samples[n-1])
	}
	v := samples[i]
	lo := sort.Search(n, func(j int) bool { return samples[j] >= v })
	hi := sort.Search(n, func(j int) bool { return samples[j] > v })
	if hi == n {
		return float64(v)
	}
	return float64(v) + float64(samples[hi]-v)*(t-float64(lo))/float64(hi-lo)
}

// quantileUs is quantile in microseconds of virtual-ns samples.
func quantileUs(samples []int64, q float64) float64 {
	return quantile(samples, q) / 1e3
}

// histQuantile estimates the q-quantile of an obs histogram window
// with linear interpolation inside its log bucket (the rule
// Prometheus' histogram_quantile applies), so the estimate moves with
// the data instead of snapping to bucket edges. Empty windows read 0.
func histQuantile(w histo.Window, q float64) float64 {
	if w.N == 0 {
		return 0
	}
	target := q * float64(w.N)
	var seen float64
	for _, b := range w.Buckets {
		c := float64(b.Count)
		if seen+c >= target {
			// histo: 16 buckets per octave, bucket i spans [2^(i/16), 2^((i+1)/16)).
			lo := math.Exp2(float64(b.Idx) / 16)
			hi := math.Exp2(float64(b.Idx+1) / 16)
			if b.Idx == 0 {
				lo = 0
			}
			return lo + (hi-lo)*(target-seen)/c
		}
		seen += c
	}
	return math.Exp2(float64(w.Buckets[len(w.Buckets)-1].Idx+1) / 16)
}

// histBeyond estimates how many samples of a histogram window lie
// above v, spreading each bucket's samples evenly over it as
// histQuantile does.
func histBeyond(w histo.Window, v float64) int {
	var n float64
	for _, b := range w.Buckets {
		lo := math.Exp2(float64(b.Idx) / 16)
		hi := math.Exp2(float64(b.Idx+1) / 16)
		if b.Idx == 0 {
			lo = 0
		}
		switch {
		case lo >= v:
			n += float64(b.Count)
		case hi > v:
			n += float64(b.Count) * (hi - v) / (hi - lo)
		}
	}
	return int(n)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// mark is a registry's state at the start of a measured phase.
type mark struct {
	cnt  map[string]uint64
	hist map[string]histo.H
}

func markRegistry(reg *obs.Registry) *mark {
	s := reg.SnapshotAt(0)
	m := &mark{cnt: s.Counters, hist: make(map[string]histo.H, len(s.Histograms))}
	for name := range s.Histograms {
		m.hist[name] = reg.Histo(name).Clone()
	}
	return m
}

// phase is a measured phase summed over one or more registries (one
// per environment): counter deltas, histogram windows, and gauges
// averaged over the registries.
type phase struct {
	cnt    map[string]float64
	hist   map[string]histo.Window
	gauge  map[string]float64
	gaugeN map[string]int
}

func newPhase() *phase {
	return &phase{cnt: map[string]float64{}, hist: map[string]histo.Window{},
		gauge: map[string]float64{}, gaugeN: map[string]int{}}
}

// add folds in what reg recorded since m (since creation when m is nil).
func (p *phase) add(reg *obs.Registry, m *mark) {
	s := reg.SnapshotAt(0)
	for name, v := range s.Counters {
		if m != nil {
			v -= m.cnt[name]
		}
		p.cnt[name] += float64(v)
	}
	for name, v := range s.Gauges {
		p.gauge[name] += v
		p.gaugeN[name]++
	}
	for name := range s.Histograms {
		var prev *histo.H
		if m != nil {
			if h, ok := m.hist[name]; ok {
				prev = &h
			}
		}
		w := p.hist[name]
		w.Merge(reg.Histo(name).WindowSince(prev))
		p.hist[name] = w
	}
}

// c reads a counter (0 when absent).
func (p *phase) c(name string) float64 { return p.cnt[name] }

// g reads a gauge's mean over the registries that have it.
func (p *phase) g(name string) float64 { return ratio(p.gauge[name], float64(p.gaugeN[name])) }

// us reads a histogram's q-quantile in µs.
func (p *phase) us(name string, q float64) float64 { return histQuantile(p.hist[name], q) / 1e3 }

// cMatch sums every counter whose name matches.
func (p *phase) cMatch(match func(string) bool) float64 {
	var v float64
	for name, c := range p.cnt {
		if match(name) {
			v += c
		}
	}
	return v
}

// hMatch merges every histogram whose name matches.
func (p *phase) hMatch(match func(string) bool) histo.Window {
	var w histo.Window
	for name, h := range p.hist {
		if match(name) {
			w.Merge(h)
		}
	}
	return w
}
