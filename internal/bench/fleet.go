// The `bench2b fleet` experiment family: multi-device fleets of
// simulated 2B-SSDs under tenant traffic, exercising the shard router,
// BA-log replication, QoS slot arbitration and failover end to end.
// Each scenario is one fleet.Run on its own single-worker sim.Group,
// scenarios fan out through points() (so -j applies), and every run
// doubles as an integrity gate: lost or phantom records, or a
// determinism divergence between worker counts, fail the run.
package bench

import (
	"fmt"
	"io"
	"reflect"
	"runtime"
	"strings"
	"time"

	"twobssd/internal/fleet"
	"twobssd/internal/sim"
	"twobssd/internal/traffic"
)

// fleetTenantOps sizes per-tenant traffic from the experiment scale.
func fleetTenantOps(s Scale) int {
	ops := int(s.AppOps / 20) // Quick: 150, Full: 1500
	if ops < 50 {
		ops = 50
	}
	return ops
}

// fleetScenario is one named fleet configuration.
type fleetScenario struct {
	id    string
	title string
	cfg   fleet.Config
}

// fleetTenants builds n tenant specs with per-tenant seeds and the
// given arrival process.
func fleetTenants(n, ops int, seedBase uint64, arrival func(i int) traffic.Arrival) []traffic.Spec {
	specs := make([]traffic.Spec, n)
	for i := range specs {
		specs[i] = traffic.Spec{
			Tenant:       fmt.Sprintf("t%02d", i),
			Seed:         seedBase + uint64(i)*0x9E37,
			Arrival:      arrival(i),
			Ops:          ops,
			Keys:         1 << 14,
			Theta:        0.99,
			ReadFraction: 0.25,
			PayloadBytes: 128,
			MaxRetries:   8,
			RetryBackoff: 20 * sim.Microsecond,
		}
	}
	return specs
}

// fleetBase is the shared fleet shape: 4 devices, 8 tenants, hash
// placement, 4 QoS slots per device (16 log streams fleet-wide, so the
// mapping table is genuinely contended).
func fleetBase(s Scale, seed uint64, arrival func(i int) traffic.Arrival) fleet.Config {
	return fleet.Config{
		Devices: 4,
		Policy:  fleet.Hash,
		Seed:    seed,
		QoS:     fleet.QoSConfig{Slots: 4, BurstOps: 4, MaxInflight: 8},
		Tenants: fleetTenants(8, fleetTenantOps(s), seed, arrival),
	}
}

// fleetScenarios is the full family: steady Zipfian load, bursty and
// diurnal arrivals, an open-loop saturation ramp with a tight retry
// budget (the retry-storm shape), and an injected primary power loss.
func fleetScenarios(s Scale) []fleetScenario {
	steady := fleetBase(s, 0x2B51, func(i int) traffic.Arrival {
		return traffic.Poisson{RatePerSec: 20000}
	})
	bursty := fleetBase(s, 0x2B52, func(i int) traffic.Arrival {
		return traffic.Bursty{
			BasePerSec:  4000,
			BurstPerSec: 80000,
			BurstEvery:  sim.Duration(10+i) * sim.Millisecond,
			BurstLen:    2 * sim.Millisecond,
		}
	})
	diurnal := fleetBase(s, 0x2B53, func(i int) traffic.Arrival {
		return traffic.Diurnal{BasePerSec: 20000, Amplitude: 0.8, Period: 20 * sim.Millisecond}
	})
	sat := fleetBase(s, 0x2B54, func(i int) traffic.Arrival {
		return traffic.Ramp{StartPerSec: 5000, EndPerSec: 150000, Over: 20 * sim.Millisecond}
	})
	for i := range sat.Tenants {
		sat.Tenants[i].MaxRetries = 2 // tight budget: rejects become drops
	}
	sat.QoS.MaxInflight = 4
	fo := fleetBase(s, 0x2B55, func(i int) traffic.Arrival {
		return traffic.Poisson{RatePerSec: 20000}
	})
	fo.Crash = &fleet.CrashSpec{Device: -1, At: sim.Time(3 * sim.Millisecond)}
	return []fleetScenario{
		{"fleet-steady", "steady Zipfian load, 4 devices x 8 tenants", steady},
		{"fleet-bursty", "bursty arrivals (phase-staggered bursts)", bursty},
		{"fleet-diurnal", "diurnal rate modulation", diurnal},
		{"fleet-saturation", "saturation ramp + retry storm", sat},
		{"fleet-failover", "injected primary power loss at 3ms", fo},
	}
}

// fleetSmokeScenario is the CI-sized gate: 2 devices, 2 tenants, one
// injected primary crash with follower takeover.
func fleetSmokeScenario() fleetScenario {
	cfg := fleet.Config{
		Devices: 2,
		Policy:  fleet.Hash,
		Seed:    0x2B50,
		QoS:     fleet.QoSConfig{Slots: 2, BurstOps: 4, MaxInflight: 8},
		Tenants: fleetTenants(2, 120, 0x2B50, func(i int) traffic.Arrival {
			return traffic.Poisson{RatePerSec: 20000}
		}),
		Crash: &fleet.CrashSpec{Device: -1, At: sim.Time(2 * sim.Millisecond)},
	}
	return fleetScenario{"fleet-smoke", "2-device smoke fleet, primary crash + takeover", cfg}
}

// fleetTable renders one scenario result as a per-tenant table.
func fleetTable(sc fleetScenario, res *fleet.Result) *Table {
	t := &Table{
		ID:     sc.id,
		Title:  sc.title,
		XLabel: "tenant",
		Series: []string{"lat p50 us", "lat p99 us", "replag p50 us", "qos wait p99 us", "evict", "drop", "lost"},
	}
	for _, tr := range res.Tenants {
		x := fmt.Sprintf("%s d%d>d%d", tr.Name, tr.Primary, tr.Follower)
		if tr.FailedOver {
			x += "*"
		}
		t.AddRow(x,
			float64(tr.LatP50.Micros()), float64(tr.LatP99.Micros()),
			float64(tr.RepLagP50.Micros()), float64(tr.QoSWaitP99.Micros()),
			float64(tr.Evictions), float64(tr.Dropped), float64(tr.Lost))
	}
	for d, dr := range res.Devices {
		state := "up"
		if dr.Down {
			state = "DOWN"
		}
		t.Notes = append(t.Notes, fmt.Sprintf(
			"dev%d %s: fairness %.3f, %d leases, %d evictions",
			d, state, dr.Fairness, dr.Leases, dr.Evictions))
	}
	if fo := res.Failover; fo != nil {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"failover: dev%d tripped at %.0fus, %d tenants took over, recovery max %.1fus, lost %d, phantom %d",
			fo.Device, sim.Duration(fo.TripAt).Micros(), fo.Tenants,
			fo.RecoveryMax.Micros(), fo.Lost, fo.Phantom))
	}
	t.Notes = append(t.Notes, fmt.Sprintf("* = failed over; %d simulation events", res.Events))
	return t
}

// fleetOutcome is one scenario's rendered table plus its violations.
type fleetOutcome struct {
	table      *Table
	violations []string
	err        error
}

func runFleetScenario(sc fleetScenario) fleetOutcome {
	res, err := fleet.Run(sc.cfg)
	if err != nil {
		return fleetOutcome{err: fmt.Errorf("%s: %w", sc.id, err)}
	}
	out := fleetOutcome{table: fleetTable(sc, res)}
	for _, v := range res.Violations() {
		out.violations = append(out.violations, sc.id+": "+v)
	}
	return out
}

// RunFleet executes the fleet experiment family (or the CI smoke
// scenario) and writes the tables to w. It returns an error when any
// scenario lost or phantomed a record, failed to fail over, or — the
// smoke's extra determinism bar — produced a different result at a
// different sim.Group worker count.
func RunFleet(r *Runner, w io.Writer, s Scale, smoke bool) error {
	var scens []fleetScenario
	if smoke {
		scens = []fleetScenario{fleetSmokeScenario()}
	} else {
		scens = fleetScenarios(s)
	}
	outs := points(r, len(scens), func(i int) fleetOutcome {
		return runFleetScenario(scens[i])
	})
	var violations []string
	for _, out := range outs {
		if out.err != nil {
			return out.err
		}
		out.table.Print(w)
		violations = append(violations, out.violations...)
	}
	if smoke {
		// Determinism bar: the same smoke fleet at 1 worker and at 2
		// must produce the identical Result, field for field.
		a := fleetSmokeScenario()
		a.cfg.Workers = 1
		b := fleetSmokeScenario()
		b.cfg.Workers = 2
		ra, errA := fleet.Run(a.cfg)
		rb, errB := fleet.Run(b.cfg)
		if errA != nil || errB != nil {
			return fmt.Errorf("fleet-smoke determinism probe: %v / %v", errA, errB)
		}
		if !reflect.DeepEqual(ra, rb) {
			violations = append(violations,
				"fleet-smoke: result diverged between 1 and 2 sim.Group workers")
		} else {
			fmt.Fprintln(w, "fleet-smoke: determinism probe ok (1 vs 2 workers identical)")
		}
	}
	if len(violations) > 0 {
		return fmt.Errorf("fleet gate: %s", strings.Join(violations, "; "))
	}
	return nil
}

// PartitionReport records the serial-vs-partitioned comparison that
// feeds -benchjson: the fleet-steady scenario wall-clocked on a
// sim.Group with one worker and with one worker per host CPU, and
// checked for result identity (the determinism bar for partitioned
// execution).
type PartitionReport struct {
	Workers           int     `json:"workers"`
	Devices           int     `json:"devices"`
	Events            uint64  `json:"events"`
	SerialWallNs      int64   `json:"serial_wall_ns"`
	PartitionedWallNs int64   `json:"partitioned_wall_ns"`
	Speedup           float64 `json:"speedup"`
	Identical         bool    `json:"identical"`
}

// PartitionSpeedup runs the speedup probe. On a 1-CPU host both runs
// use one worker, so Identical is still a meaningful determinism check.
func PartitionSpeedup(s Scale) (*PartitionReport, error) {
	run := func(workers int) (*fleet.Result, time.Duration, error) {
		cfg := fleetScenarios(s)[0].cfg // fleet-steady
		cfg.Workers = workers
		t0 := time.Now()
		res, err := fleet.Run(cfg)
		return res, time.Since(t0), err
	}
	workers := runtime.NumCPU()
	serial, serialWall, err := run(1)
	if err != nil {
		return nil, fmt.Errorf("partition probe: %w", err)
	}
	part, partWall, err := run(workers)
	if err != nil {
		return nil, fmt.Errorf("partition probe: %w", err)
	}
	rep := &PartitionReport{
		Workers:           workers,
		Devices:           len(part.Devices),
		Events:            part.Events,
		SerialWallNs:      serialWall.Nanoseconds(),
		PartitionedWallNs: partWall.Nanoseconds(),
		Identical:         reflect.DeepEqual(serial, part),
	}
	if partWall > 0 {
		rep.Speedup = float64(serialWall) / float64(partWall)
	}
	return rep, nil
}
