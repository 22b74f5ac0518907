package main

import (
	"fmt"
	"strings"
	"time"

	"twobssd/internal/bench"
	"twobssd/internal/fault"
	"twobssd/internal/obs"
	"twobssd/internal/sim"
)

// crashParams sizes the crash-sweep workload.
type crashParams struct {
	Campaigns []string `json:"campaigns"`
	Points    int      `json:"points_per_campaign"`
}

func crashDefaults() crashParams {
	return crashParams{Campaigns: []string{"walseg", "lsm", "pglite"}, Points: 64}
}

// pointOut is what the benchmark reads back from one crash point.
type pointOut struct {
	campaign string
	pr       fault.PointResult
	virt     sim.Duration // the point's whole virtual run
	recovery sim.Duration // power cut to verified recovery; 0 if it never tripped
	events   uint64
}

// collecting runs fn with a collector installed and returns the obs
// sets of the environments fn created.
func collecting(fn func()) []*obs.Set {
	col := obs.NewCollector(false)
	col.Install()
	defer col.Uninstall()
	fn()
	return col.Sets()
}

// shutdown releases the environments behind sets; a campaign leaves
// its environments' parked processes alive.
func shutdown(sets []*obs.Set) {
	for _, s := range sets {
		s.Env().Shutdown()
	}
}

// runPoint executes one campaign point, reads its environment and
// folds its registry into ph.
func runPoint(c *fault.Campaign, i int, ph *phase) (pointOut, error) {
	var pr fault.PointResult
	sets := collecting(func() { pr = c.RunPoint(i) })
	defer shutdown(sets)
	out := pointOut{campaign: c.Name, pr: pr}
	if pr.Violation() {
		return out, checkFail("campaign-violation", fmt.Errorf("%s point %d (%s): lost %v phantom %v err %q",
			c.Name, i, pr.Trigger, pr.Lost, pr.Phantom, pr.Err))
	}
	if len(sets) != 1 {
		return out, fmt.Errorf("%s point %d: %d environments, want 1", c.Name, i, len(sets))
	}
	env, reg := sets[0].Env(), sets[0].Registry()
	out.virt = sim.Duration(env.Now())
	out.events = env.Events()
	if pr.TrippedBy != "" {
		out.recovery = sim.Duration(env.Now() - sim.Time(pr.TrippedAt))
	}
	ph.add(reg, nil)
	return out, nil
}

// cycleHostTimes drives one crash cycle of a campaign by hand, through
// the public fault.Cycle interface, to time its stack build and its
// recovery on the host: a campaign point runs both inside one call.
func cycleHostTimes(c *fault.Campaign) (build, recov time.Duration, err error) {
	shutdown(collecting(func() {
		env := sim.NewEnv()
		fault.Install(env, fault.Plan{Seed: c.Seed})
		env.Go("cycle", func(p *sim.Proc) {
			t0 := time.Now()
			cyc, e := c.Build(env, p)
			build = time.Since(t0)
			if e != nil {
				err = fmt.Errorf("%s build: %w", c.Name, e)
				return
			}
			for k := 0; k < c.Ops; k++ {
				if _, e := cyc.Step(p, k); e != nil {
					err = fmt.Errorf("%s step %d: %w", c.Name, k, e)
					return
				}
			}
			if _, _, e := cyc.Crash(p); e != nil {
				err = fmt.Errorf("%s crash: %w", c.Name, e)
				return
			}
			t1 := time.Now()
			_, phantoms, e := cyc.Recover(p)
			recov = time.Since(t1)
			if e == nil && len(phantoms) > 0 {
				e = fmt.Errorf("phantom records %v", phantoms)
			}
			if e != nil {
				err = fmt.Errorf("%s recover: %w", c.Name, e)
			}
		})
		env.Run()
	}))
	return build, recov, err
}

// campaigns builds the sweep's campaigns with seeds derived from the
// benchmark seed.
func campaigns(cp crashParams, seed int64) ([]*fault.Campaign, error) {
	var cs []*fault.Campaign
	for i, name := range cp.Campaigns {
		c, err := bench.NewCrashCampaign(name, cp.Points)
		if err != nil {
			return nil, err
		}
		c.Seed = uint64(seed)*0x9E3779B97F4A7C15 + uint64(i+1)*0xC2B2AE3D27D4EB4F
		cs = append(cs, c)
	}
	return cs, nil
}

// crashRound prepares every campaign (the profile pass is set-up) and
// runs all their points.
func crashRound(cp crashParams, seed int64, sp *spans) (*roundResult, error) {
	res := newRoundResult()
	ph := sp.beginPhase("build", 0)
	var cs []*fault.Campaign
	setup, err := medianSetup(func() error {
		var err error
		if cs, err = campaigns(cp, seed); err != nil {
			return err
		}
		for _, c := range cs {
			call := sp.begin("fault.Campaign.Prepare", 0, 0)
			shutdown(collecting(func() { err = c.Prepare() }))
			call.end(0)
			if err != nil {
				return err
			}
		}
		return nil
	})
	res.setup = setup
	ph.end(0)
	if err != nil {
		return nil, err
	}

	m0 := mallocs()
	t1 := time.Now()
	var outs []pointOut
	acc := newPhase()
	for _, c := range cs {
		ph := sp.beginPhase("measure."+c.Name, 0)
		for i := 0; i < c.NumPoints(); i++ {
			call := sp.begin("fault.Campaign.RunPoint", 0, uint64(i))
			o, err := runPoint(c, i, acc)
			call.end(sim.Time(o.virt))
			if err != nil {
				return nil, err
			}
			outs = append(outs, o)
		}
		ph.end(0)
	}
	res.measure = time.Since(t1)
	res.mallocs = mallocs() - m0
	res.ops = len(outs)

	var lat []int64
	var recov, pgRecov []int64
	var total sim.Duration
	tripped, persisted, repairs := 0, 0, 0
	var trips uint64
	for _, o := range outs {
		lat = append(lat, int64(o.virt))
		res.events += o.events
		total += o.virt
		repairs += o.pr.Repairs
		trips += o.pr.Faults.Trips
		if o.recovery > 0 {
			tripped++
			recov = append(recov, int64(o.recovery))
			if o.pr.Persisted {
				persisted++
			}
			if o.campaign == "pglite" {
				pgRecov = append(pgRecov, int64(o.recovery))
			}
		}
	}
	if tripped == 0 {
		return nil, checkFail("campaign-tripped", fmt.Errorf("no crash point tripped"))
	}
	res.setSampleLatency(lat, " of whole points")
	res.e2e["modeled_ops_per_s"] = float64(len(outs)) / total.Seconds()
	res.samples["modeled_ops_per_s"] = len(outs)
	res.e2e["write_amp"] = acc.c("nand.bytes_written") / acc.c("wal.bytes_appended")
	// The mean, not the median: recovery time is a step function of
	// the committed-op count, so the median sits on the same grid
	// value for every seed.
	var sum float64
	for _, d := range recov {
		sum += float64(d)
	}
	res.e2e["recovery_ms"] = sum / float64(len(recov)) / 1e6
	res.samples["recovery_ms"] = tripped
	res.notes["recovery_ms"] = "power cut to verified recovery, mean over tripped points of " + strings.Join(cp.Campaigns, "+")

	for _, c := range cs {
		build, recov, err := cycleHostTimes(c)
		if err != nil {
			return nil, err
		}
		res.hostLayers["fault.build_s_per_point"] += build.Seconds() / float64(len(cs))
		res.hostLayers["fault.recover_s_per_point"] += recov.Seconds() / float64(len(cs))
	}

	L := res.layers
	L["sim.events_per_op"] = float64(res.events) / float64(res.ops)
	L["fault.dump_persisted_frac"] = float64(persisted) / float64(tripped)
	L["fault.trips"] = float64(trips)
	L["pglite.recover_ms"] = quantile(pgRecov, 0.5) / 1e6
	deviceLayers(L, acc, float64(res.ops))
	L["wal.seg_recover_p50_us"] = acc.us("wal.seg_recover_ns", 0.5)
	L["wal.seg_torn_repairs"] = float64(repairs)
	return res, nil
}
