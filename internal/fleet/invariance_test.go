package fleet_test

import (
	"bytes"
	"io"
	"reflect"
	"testing"

	"twobssd/internal/bench"
	"twobssd/internal/fleet"
	"twobssd/internal/obs"
	"twobssd/internal/sim"
)

// The whole Result — every counter, percentile, and event count — must
// be byte-identical at any worker count (the partitioned-DES claim), and
// so must the merged metrics snapshot and the sampled metric timeline
// a collector records over the run.
func TestFleetWorkersInvariance(t *testing.T) {
	base := fleet.TestConfig(4, 6, 120)
	base.Crash = &fleet.CrashSpec{Device: -1, At: sim.Time(2 * sim.Millisecond)}
	run := func(workers int) (res *fleet.Result, metrics, timeline []byte) {
		col := obs.NewCollector(false)
		col.EnableSampling(0, 0)
		cfg := base
		cfg.Workers = workers
		ex := bench.Experiment{ID: "fleet", Run: func(*bench.Runner, io.Writer) (err error) {
			res, err = fleet.Run(cfg)
			return err
		}}
		if err := bench.NewRunner(1, col).Run(io.Discard, []bench.Experiment{ex}); err != nil {
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
