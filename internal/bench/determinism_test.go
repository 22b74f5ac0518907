package bench

import (
	"bytes"
	"io"
	"testing"

	"twobssd/internal/obs"
)

// artifact is one determinism-harness row: a bench2b artifact at Quick
// scale whose printed output, merged metrics and merged timeline must
// not depend on the executor.
type artifact struct {
	Experiment
	short bool // also runs under -short (keeps the parallel executor under -race in CI)
}

// artifacts lists every bench2b "all" experiment at Quick scale, in
// print order, followed by the crash, wal-life and fleet sweeps.
func artifacts() []artifact {
	var rows []artifact
	for _, ex := range Experiments(Quick) {
		rows = append(rows, artifact{Experiment: ex})
	}
	return append(rows,
		artifact{Experiment{"crash", func(r *Runner, w io.Writer) error {
			return RunCrash(r, w, []string{"lsm", "kvaof"}, 8)
		}}, true},
		artifact{Experiment{"wal-life", func(r *Runner, w io.Writer) error { return RunWalLife(r, w, 8) }}, true},
		artifact{Experiment{"fleet", func(r *Runner, w io.Writer) error { return RunFleet(r, w, Quick, false) }}, false},
	)
}

// capture runs the experiments through one Runner at the given -j
// under a fresh sampling collector and returns their printed output,
// merged metrics snapshot and merged metric timeline.
func capture(t *testing.T, exps []Experiment, jobs int) (out, metrics, timeline []byte) {
	t.Helper()
	col := obs.NewCollector(false)
	col.EnableSampling(0, 0)
	var o, m, tl bytes.Buffer
	if err := NewRunner(jobs, col).Run(&o, exps); err != nil {
		t.Fatalf("-j %d: %v\n%s", jobs, err, o.String())
	}
	if err := col.WriteMetricsJSON(&m); err != nil {
		t.Fatalf("-j %d: metrics snapshot: %v", jobs, err)
	}
	if err := col.WriteTimelineJSON(&tl); err != nil {
		t.Fatalf("-j %d: timeline: %v", jobs, err)
	}
	return o.Bytes(), m.Bytes(), tl.Bytes()
}

// TestExperimentsDeterministic is the determinism harness: every
// artifact runs at -j 1 (strictly sequential, the legacy execution
// order) and at -j 8, and its printed output, merged metrics snapshot
// and merged timeline must be byte-identical. This is the guard that
// lets the sim kernel and the parallel runner be optimised freely: any
// scheduling or ordering leak into virtual-time results fails the
// subtest of the artifact that moved.
func TestExperimentsDeterministic(t *testing.T) {
	for _, a := range artifacts() {
		t.Run(a.ID, func(t *testing.T) {
			if testing.Short() && !a.short {
				t.Skip("skipped with -short")
			}
			o1, m1, tl1 := capture(t, []Experiment{a.Experiment}, 1)
			o8, m8, tl8 := capture(t, []Experiment{a.Experiment}, 8)
			if !bytes.Equal(o1, o8) {
				t.Errorf("output differs between -j 1 and -j 8:\n--- j1 ---\n%s--- j8 ---\n%s", o1, o8)
			}
			if !bytes.Equal(m1, m8) {
				t.Errorf("merged metrics differ between -j 1 and -j 8:\n--- j1 ---\n%s--- j8 ---\n%s", m1, m8)
			}
			if !bytes.Equal(tl1, tl8) {
				t.Errorf("merged timeline differs between -j 1 and -j 8 (%d vs %d bytes)", len(tl1), len(tl8))
			}
			if a.ID != "tab1" && len(tl1) < 100 {
				t.Errorf("merged timeline is empty: %s", tl1)
			}
			if a.ID == "fleet" && !bytes.Contains(m1, []byte("fleet.qos.fairness")) {
				t.Errorf("merged metrics lack the fleet.qos.fairness gauge")
			}
		})
	}
}

// TestJobsInvariance runs the whole "all" experiment suite through one
// Runner into one collector at -j 1 (experiments in order) and at -j 8
// (experiments concurrently, as bench2b runs them) and demands
// byte-identical tables, an identical merged metrics snapshot and an
// identical merged timeline. Unlike the per-artifact harness above, it
// checks that metrics and samples merged across experiments do not
// depend on the executor.
func TestJobsInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep; skipped with -short")
	}
	o1, m1, tl1 := capture(t, Experiments(Quick), 1)
	o8, m8, tl8 := capture(t, Experiments(Quick), 8)
	if !bytes.Equal(o1, o8) {
		t.Errorf("table output differs between -j 1 and -j 8")
	}
	if !bytes.Equal(m1, m8) {
		t.Errorf("merged metrics snapshot differs between -j 1 and -j 8:\n--- j1 ---\n%s--- j8 ---\n%s", m1, m8)
	}
	if !bytes.Equal(tl1, tl8) {
		t.Errorf("merged timeline differs between -j 1 and -j 8 (j1 %d bytes, j8 %d bytes)", len(tl1), len(tl8))
	}
	if len(tl1) < 100 {
		t.Errorf("merged timeline is empty: %s", tl1)
	}
}
