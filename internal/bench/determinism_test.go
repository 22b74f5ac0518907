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
	id    string
	short bool // also runs under -short (keeps the parallel executor under -race in CI)
	run   func(io.Writer) error
}

// artifacts lists every bench2b "all" experiment at Quick scale, in
// print order, followed by the crash, wal-life and fleet sweeps.
func artifacts() []artifact {
	var rows []artifact
	for _, ex := range Experiments(Quick) {
		run := ex.Run
		rows = append(rows, artifact{id: ex.ID, run: func(w io.Writer) error { run(w); return nil }})
	}
	return append(rows,
		artifact{"crash", true, func(w io.Writer) error { return RunCrash(w, []string{"lsm", "kvaof"}, 8) }},
		artifact{"wal-life", true, func(w io.Writer) error { return RunWalLife(w, 8) }},
		artifact{"fleet", false, func(w io.Writer) error { return RunFleet(w, Quick, false) }},
	)
}

// capture runs one artifact at the given -j under a fresh sampling
// collector and returns its printed output, merged metrics snapshot
// and merged metric timeline.
func capture(t *testing.T, a artifact, jobs int) (out, metrics, timeline []byte) {
	t.Helper()
	defer SetJobs(Jobs())
	SetJobs(jobs)
	col := obs.NewCollector(false)
	col.EnableSampling(0, 0)
	col.Install()
	defer col.Uninstall()
	var o, m, tl bytes.Buffer
	if err := a.run(&o); err != nil {
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
		t.Run(a.id, func(t *testing.T) {
			if testing.Short() && !a.short {
				t.Skip("skipped with -short")
			}
			o1, m1, tl1 := capture(t, a, 1)
			o8, m8, tl8 := capture(t, a, 8)
			if !bytes.Equal(o1, o8) {
				t.Errorf("output differs between -j 1 and -j 8:\n--- j1 ---\n%s--- j8 ---\n%s", o1, o8)
			}
			if !bytes.Equal(m1, m8) {
				t.Errorf("merged metrics differ between -j 1 and -j 8:\n--- j1 ---\n%s--- j8 ---\n%s", m1, m8)
			}
			if !bytes.Equal(tl1, tl8) {
				t.Errorf("merged timeline differs between -j 1 and -j 8 (%d vs %d bytes)", len(tl1), len(tl8))
			}
			if a.id != "tab1" && len(tl1) < 100 {
				t.Errorf("merged timeline is empty: %s", tl1)
			}
			if a.id == "fleet" && !bytes.Contains(m1, []byte("fleet.qos.fairness")) {
				t.Errorf("merged metrics lack the fleet.qos.fairness gauge")
			}
		})
	}
}

// TestJobsInvariance runs the whole "all" experiment suite into one
// collector at -j 1 and at -j 8 and demands byte-identical tables, an
// identical merged metrics snapshot and an identical merged timeline.
// Unlike the per-artifact harness above, it checks that metrics and
// samples merged across experiments do not depend on the executor.
func TestJobsInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep; skipped with -short")
	}
	all := artifact{id: "all", run: func(w io.Writer) error {
		for _, ex := range Experiments(Quick) {
			ex.Run(w)
		}
		return nil
	}}
	o1, m1, tl1 := capture(t, all, 1)
	o8, m8, tl8 := capture(t, all, 8)
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
