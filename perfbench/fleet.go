package main

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"twobssd/internal/fleet"
	"twobssd/internal/obs"
	"twobssd/internal/sim"
	"twobssd/internal/traffic"
)

// fleetParams sizes the fleet-open workload.
type fleetParams struct {
	Devices           int       `json:"devices"`
	Tenants           int       `json:"tenants"`
	Workers           int       `json:"sim_group_workers"`
	OpsPerRate        int       `json:"ops_per_tenant_per_rate"`
	Rates             []float64 `json:"rate_ladder_per_tenant"` // Poisson arrivals/s per tenant
	Keys              int64     `json:"keys_per_tenant"`
	Theta             float64   `json:"zipf_theta"`
	ReadFrac          float64   `json:"read_fraction"`
	Payload           int       `json:"payload_bytes"`
	Slots             int       `json:"qos_slots_per_device"`
	LogBytes          int64     `json:"log_bytes_per_stream"`
	SLOP99Us          float64   `json:"slo_p99_us"`
	CrashAtUs         float64   `json:"crash_at_us"` // primary power loss in the extra base-rate, write-only run
	MaxRetries        int       `json:"max_retries"`
	GeneratorLateness string    `json:"generator_lateness"`
}

func fleetDefaults() fleetParams {
	return fleetParams{
		Devices: 4,
		Tenants: 8,
		// One worker: the fleet's result is the same at any worker
		// count, and two lockstep workers on a host with two shared
		// cores stall whenever either core is taken away, which made
		// host_ops_per_s follow the host's load, not the program.
		Workers:    1,
		OpsPerRate: 1000,
		// Brackets the knee: the existing fleet-steady scenario at
		// 20k/s per tenant already misses a 1 ms p99 on one device.
		Rates:      []float64{2500, 5000, 10000, 20000, 40000},
		Keys:       1 << 14,
		Theta:      0.99,
		ReadFrac:   0.25,
		Payload:    128,
		Slots:      4,
		LogBytes:   2 << 20,
		SLOP99Us:   1000,
		CrashAtUs:  3000,
		MaxRetries: 32,
		// The dispatcher sleeps to each arrival in virtual time, so it
		// cannot fall behind its schedule.
		GeneratorLateness: "0 by construction (virtual-time dispatcher)",
	}
}

// fleetConfig builds one ladder step's fleet; seeds derive from the
// benchmark seed and the step.
func (fp fleetParams) config(seed int64, rate float64, ops int, crash bool) fleet.Config {
	base := uint64(seed)*0x9E3779B97F4A7C15 + uint64(rate)
	specs := make([]traffic.Spec, fp.Tenants)
	for i := range specs {
		specs[i] = traffic.Spec{
			Tenant:       fmt.Sprintf("t%02d", i),
			Seed:         base + uint64(i)*0x9E37,
			Arrival:      traffic.Poisson{RatePerSec: rate},
			Ops:          ops,
			Keys:         fp.Keys,
			Theta:        fp.Theta,
			ReadFraction: fp.ReadFrac,
			PayloadBytes: fp.Payload,
			MaxRetries:   fp.MaxRetries,
			RetryBackoff: 20 * sim.Microsecond,
		}
	}
	cfg := fleet.Config{
		Devices:  fp.Devices,
		Policy:   fleet.Hash,
		Workers:  fp.Workers,
		Seed:     base,
		QoS:      fleet.QoSConfig{Slots: fp.Slots, BurstOps: 4, MaxInflight: 8},
		LogBytes: fp.LogBytes,
		Tenants:  specs,
	}
	if crash {
		cfg.Crash = &fleet.CrashSpec{Device: -1, At: sim.Time(fp.CrashAtUs * float64(sim.Microsecond))}
		// A tenant's volume lives only on its primary, so reads have no
		// replica to fail over to: the failover run is write-only.
		for i := range cfg.Tenants {
			cfg.Tenants[i].ReadFraction = 0
		}
	}
	return cfg
}

// fleetRun is one fleet.Run with the registries of its devices.
type fleetRun struct {
	res  *fleet.Result
	sets []*obs.Set
}

// runFleet executes one fleet with a collector installed, so the
// device registries can be read after the run.
func runFleet(cfg fleet.Config) (*fleetRun, error) {
	col := obs.NewCollector(false)
	col.Install()
	res, err := fleet.Run(cfg)
	col.Uninstall()
	if err != nil {
		return nil, err
	}
	if v := res.Violations(); len(v) > 0 {
		return nil, checkFail("fleet-violations", fmt.Errorf("%s", strings.Join(v, "; ")))
	}
	return &fleetRun{res: res, sets: col.Sets()}, nil
}

// phase sums the run's device registries.
func (fr *fleetRun) phase() *phase {
	p := newPhase()
	for _, s := range fr.sets {
		p.add(s.Registry(), nil)
	}
	return p
}

func isTenantLatency(name string) bool {
	return strings.HasPrefix(name, "fleet.") && strings.HasSuffix(name, ".latency_ns") && !strings.HasPrefix(name, "fleet.qos.")
}

// fleetRound runs the rate ladder, then one extra base-rate run with a
// primary power loss.
func fleetRound(fp fleetParams, seed int64, sp *spans) (*roundResult, error) {
	res := newRoundResult()
	// Set-up: stand the fleet up with a single op per tenant.
	ph := sp.beginPhase("build", 0)
	setup, err := medianSetup(func() error {
		_, err := runFleet(fp.config(seed, fp.Rates[0], 1, false))
		return err
	})
	res.setup = setup
	ph.end(0)
	if err != nil {
		return nil, err
	}

	// measured runs one fleet of the measured phase. Each starts from a
	// collected heap, and the collection is not timed.
	measured := func(cfg fleet.Config, op uint64) (*fleetRun, error) {
		runtime.GC()
		call := sp.begin("fleet.Run", 0, op)
		m0, t0 := mallocs(), time.Now()
		fr, err := runFleet(cfg)
		dt := time.Since(t0)
		res.measure += dt
		res.steps = append(res.steps, dt)
		res.mallocs += mallocs() - m0
		call.end(0)
		if err != nil {
			return nil, err
		}
		res.events += fr.res.Events
		for _, t := range fr.res.Tenants {
			res.ops += t.Ops
			res.failed += t.Dropped
		}
		return fr, nil
	}
	var runs []*fleetRun
	L := res.layers
	maxRate := 0.0
	for i, rate := range fp.Rates {
		ph = sp.beginPhase(fmt.Sprintf("measure.r%.0f", rate), 0)
		fr, err := measured(fp.config(seed, rate, fp.OpsPerRate, false), uint64(i))
		ph.end(0)
		if err != nil {
			return nil, err
		}
		runs = append(runs, fr)
		lat := fr.phase().hMatch(isTenantLatency)
		p99 := histQuantile(lat, 0.99) / 1e3
		tag := fmt.Sprintf("r%.0f", rate)
		L["fleet.lat_p50_us."+tag] = histQuantile(lat, 0.5) / 1e3
		L["fleet.lat_p99_us."+tag] = p99
		dropped := 0
		for _, t := range fr.res.Tenants {
			dropped += t.Dropped
		}
		if p99 <= fp.SLOP99Us && dropped == 0 && rate > maxRate {
			maxRate = rate
		}
	}
	ph = sp.beginPhase("measure.crash", 0)
	crash, err := measured(fp.config(seed, fp.Rates[0], fp.OpsPerRate, true), uint64(len(fp.Rates)))
	ph.end(0)
	if err != nil {
		return nil, err
	}
	fo := crash.res.Failover
	if fo == nil || fo.Tenants == 0 {
		return nil, checkFail("fleet-failover", fmt.Errorf("the injected primary power loss caused no failover"))
	}

	base := runs[0].phase()
	lat := base.hMatch(isTenantLatency)
	res.setLatency(int(lat.N), func(q float64) float64 { return histQuantile(lat, q) },
		func(v float64) int { return histBeyond(lat, v) }, " at the base rate")
	// Goodput at the base rate. It follows the offered load; past the
	// knee, backlogs and retries make it vary too much between seeds
	// to gate on.
	completed := 0
	for _, t := range runs[0].res.Tenants {
		completed += t.Acked + t.Reads + t.Degraded + t.Takeover
	}
	res.e2e["modeled_ops_per_s"] = float64(completed) / fleetSpan(runs[0]).Seconds()
	res.samples["modeled_ops_per_s"] = completed
	res.notes["modeled_ops_per_s"] = "completed per virtual second at the base rate"
	commits := base.cMatch(func(n string) bool { return strings.HasSuffix(n, ".commits") && strings.HasPrefix(n, "fleet.t") })
	res.e2e["write_amp"] = base.c("nand.bytes_written") / (commits * float64(fp.Payload))
	res.e2e["recovery_ms"] = fo.RecoveryMax.Seconds() * 1e3
	res.notes["recovery_ms"] = fmt.Sprintf("failover verify, %d tenants failed over", fo.Tenants)

	ops := float64(res.ops)
	L["sim.events_per_op"] = float64(res.events) / ops
	L["fleet.max_rate_at_slo"] = maxRate
	L["fleet.replag_p50_us"] = histQuantile(base.hMatch(func(n string) bool { return strings.HasSuffix(n, ".rep_lag_ns") }), 0.5) / 1e3
	L["fleet.qos_wait_p99_us"] = histQuantile(base.hMatch(func(n string) bool {
		return strings.HasPrefix(n, "fleet.qos.") && strings.HasSuffix(n, ".wait_ns")
	}), 0.99) / 1e3
	fair := math.Inf(1)
	var leases, evictions float64
	var throttled, retries, arrivals int
	for _, fr := range runs {
		for _, d := range fr.res.Devices {
			fair = math.Min(fair, d.Fairness)
			leases += float64(d.Leases)
			evictions += float64(d.Evictions)
		}
		for _, t := range fr.res.Tenants {
			throttled += t.Throttled
			retries += t.Retries
			arrivals += t.Ops
		}
	}
	L["fleet.fairness_min"] = fair
	L["fleet.evictions_per_lease"] = ratio(evictions, leases)
	L["fleet.throttles_per_op"] = ratio(float64(throttled), float64(arrivals)) // an op can be throttled more than once
	L["fleet.retries_per_op"] = ratio(float64(retries), float64(arrivals))
	baseOps := 0
	for _, t := range runs[0].res.Tenants {
		baseOps += t.Ops
	}
	deviceLayers(L, base, float64(baseOps))
	L["wal.seg_rotations"] = base.c("wal.seg_rotations")
	L["wal.seg_recover_p50_us"] = base.us("wal.seg_recover_ns", 0.5)
	L["wal.commit_p50_us"] = base.us("wal.seg_commit_ns", 0.5)
	L["wal.commit_p99_us"] = base.us("wal.seg_commit_ns", 0.99)
	return res, nil
}

// fleetSpan is the virtual length of a run: the latest device clock.
func fleetSpan(fr *fleetRun) sim.Duration {
	var t sim.Time
	for _, s := range fr.sets {
		if now := s.Env().Now(); now > t {
			t = now
		}
	}
	return sim.Duration(t)
}
