package fleet

import (
	"bytes"
	"reflect"
	"testing"

	"twobssd/internal/obs"
	"twobssd/internal/sim"
	"twobssd/internal/traffic"
)

func testSpec(name string, seed uint64, ops int) traffic.Spec {
	return traffic.Spec{
		Tenant:       name,
		Seed:         seed,
		Arrival:      traffic.Poisson{RatePerSec: 20000},
		Ops:          ops,
		Keys:         1 << 12,
		Theta:        0.99,
		ReadFraction: 0.25,
		PayloadBytes: 96,
		MaxRetries:   8,
		RetryBackoff: 20 * sim.Microsecond,
	}
}

func testConfig(devices, tenants, ops int) Config {
	cfg := Config{
		Devices: devices,
		Policy:  Hash,
		Seed:    0xF1EE7,
		QoS:     QoSConfig{Slots: 4, BurstOps: 4, MaxInflight: 8},
	}
	for i := 0; i < tenants; i++ {
		cfg.Tenants = append(cfg.Tenants, testSpec(
			"t"+string(rune('a'+i)), 1000+uint64(i)*7, ops))
	}
	return cfg
}

// A healthy small fleet: every scheduled write replicates, acks, and
// survives the end-of-run media scan with zero lost/phantom records.
func TestFleetHealthyRun(t *testing.T) {
	cfg := testConfig(3, 4, 150)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if v := res.Violations(); len(v) != 0 {
		t.Fatalf("violations: %v", v)
	}
	for _, tr := range res.Tenants {
		writes := tr.Ops - tr.Reads - tr.Dropped
		if tr.Acked+tr.Degraded < writes {
			t.Fatalf("%s: %d writes but only %d acked + %d degraded",
				tr.Name, writes, tr.Acked, tr.Degraded)
		}
		if tr.Applied != tr.Acked {
			t.Fatalf("%s: follower applied %d but primary saw %d acks",
				tr.Name, tr.Applied, tr.Acked)
		}
		if tr.FailedOver {
			t.Fatalf("%s failed over without a crash", tr.Name)
		}
		if tr.LatP50 <= 0 || tr.RepLagP50 <= 0 {
			t.Fatalf("%s: empty latency/lag distributions: %+v", tr.Name, tr)
		}
		if floor := cfg.netLatency() + cfg.applyCPU(); tr.RepLagMax < floor {
			t.Fatalf("%s: max replication lag %v below link latency + apply cost %v", tr.Name, tr.RepLagMax, floor)
		}
	}
	for d, dr := range res.Devices {
		if dr.Down {
			t.Fatalf("device %d down without a crash", d)
		}
		if dr.Leases == 0 {
			t.Fatalf("device %d never leased a slot", d)
		}
		if dr.Fairness <= 0 || dr.Fairness > 1.0001 {
			t.Fatalf("device %d fairness %f outside (0,1]", d, dr.Fairness)
		}
	}
}

// Fewer slots than streams must produce contention (evictions) while
// still committing everything — the QoS arbitration at work.
func TestFleetQoSContention(t *testing.T) {
	cfg := testConfig(2, 6, 120)
	cfg.Policy = Range // pack 3 tenants per device: 6 streams on 4 slots
	cfg.QoS = QoSConfig{Slots: 2, BurstOps: 2, MaxInflight: 8}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if v := res.Violations(); len(v) != 0 {
		t.Fatalf("violations: %v", v)
	}
	var evictions uint64
	for _, dr := range res.Devices {
		evictions += dr.Evictions
	}
	if evictions == 0 {
		t.Fatal("2 slots under 6 streams produced no evictions")
	}
}

// Injected primary power loss: the follower must take over with zero
// lost and zero phantom records, and rerouted traffic must land.
func TestFleetFailover(t *testing.T) {
	cfg := testConfig(3, 3, 200)
	cfg.Crash = &CrashSpec{Device: -1, At: sim.Time(3 * sim.Millisecond)}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if v := res.Violations(); len(v) != 0 {
		t.Fatalf("violations: %v", v)
	}
	if res.Failover == nil || res.Failover.Tenants == 0 {
		t.Fatal("crash produced no failover")
	}
	if res.Failover.Lost != 0 || res.Failover.Phantom != 0 {
		t.Fatalf("failover lost %d phantom %d records",
			res.Failover.Lost, res.Failover.Phantom)
	}
	if res.Failover.RecoveryMax <= 0 {
		t.Fatal("failover recorded no recovery time")
	}
	if !res.Devices[res.Failover.Device].Down {
		t.Fatalf("crash device %d not marked down", res.Failover.Device)
	}
	sawTakeover := false
	for _, tr := range res.Tenants {
		if tr.FailedOver && tr.Takeover > 0 {
			sawTakeover = true
		}
	}
	if !sawTakeover {
		t.Fatal("no tenant rerouted traffic to its follower")
	}
}

// The whole Result — every counter, percentile, and event count — must
// be byte-identical at any worker count (the partitioned-DES claim), and
// so must the merged metrics snapshot and the sampled metric timeline
// an installed collector records.
func TestFleetWorkersInvariance(t *testing.T) {
	base := testConfig(4, 6, 120)
	base.Crash = &CrashSpec{Device: -1, At: sim.Time(2 * sim.Millisecond)}
	run := func(workers int) (res *Result, metrics, timeline []byte) {
		col := obs.NewCollector(false)
		col.EnableSampling(0, 0)
		col.Install()
		defer col.Uninstall()
		cfg := base
		cfg.Workers = workers
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var m, tl bytes.Buffer
		if err := col.WriteMetricsJSON(&m); err != nil {
			t.Fatalf("workers=%d: metrics: %v", workers, err)
		}
		if err := col.WriteTimelineJSON(&tl); err != nil {
			t.Fatalf("workers=%d: timeline: %v", workers, err)
		}
		return res, m.Bytes(), tl.Bytes()
	}
	ref, refM, refTL := run(1)
	if len(refTL) < 100 {
		t.Fatalf("sampled timeline is empty: %s", refTL)
	}
	for _, workers := range []int{4, 8} {
		res, m, tl := run(workers)
		if !reflect.DeepEqual(ref, res) {
			t.Fatalf("workers=%d result diverged from workers=1:\n%+v\nvs\n%+v",
				workers, ref, res)
		}
		if !bytes.Equal(refM, m) {
			t.Fatalf("workers=%d merged metrics diverged from workers=1:\n%s\nvs\n%s", workers, refM, m)
		}
		if !bytes.Equal(refTL, tl) {
			t.Fatalf("workers=%d merged timeline diverged from workers=1 (%d vs %d bytes)",
				workers, len(refTL), len(tl))
		}
	}
}

// Run must reject configurations replication cannot serve.
func TestFleetConfigValidation(t *testing.T) {
	if _, err := Run(Config{Devices: 1, Tenants: []traffic.Spec{testSpec("a", 1, 10)}}); err == nil {
		t.Fatal("single-device fleet accepted")
	}
	if _, err := Run(Config{Devices: 2}); err == nil {
		t.Fatal("tenantless fleet accepted")
	}
	cfg := testConfig(2, 1, 10)
	cfg.Crash = &CrashSpec{Device: 5, At: sim.Time(sim.Millisecond)}
	if _, err := Run(cfg); err == nil {
		t.Fatal("out-of-range crash device accepted")
	}
}
