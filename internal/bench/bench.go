// Package bench regenerates every table and figure of the paper's
// evaluation (Section V) on the simulated stack, plus the ablations
// called out in DESIGN.md. Each experiment returns a Table whose rows
// mirror the series the paper plots; cmd/bench2b prints them and
// bench_test.go wraps them as testing.B benchmarks.
package bench

import (
	"fmt"
	"io"
	"strings"

	"twobssd/internal/core"
	"twobssd/internal/device"
	"twobssd/internal/sim"
)

// Table is one reproduced figure or table.
type Table struct {
	ID     string // e.g. "fig7a"
	Title  string
	XLabel string
	Unit   string
	Series []string
	Rows   []Row
	Notes  []string
}

// Row is one x-axis point.
type Row struct {
	X    string
	Vals []float64
}

// AddRow appends a data point.
func (t *Table) AddRow(x string, vals ...float64) {
	t.Rows = append(t.Rows, Row{X: x, Vals: vals})
}

// Print renders the table in fixed-width columns.
func (t *Table) Print(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", strings.ToUpper(t.ID), t.Title)
	if t.Unit != "" {
		fmt.Fprintf(w, "   (values in %s)\n", t.Unit)
	}
	head := fmt.Sprintf("%-14s", t.XLabel)
	for _, s := range t.Series {
		head += fmt.Sprintf("%16s", s)
	}
	fmt.Fprintln(w, head)
	for _, r := range t.Rows {
		line := fmt.Sprintf("%-14s", r.X)
		for _, v := range r.Vals {
			line += fmt.Sprintf("%16.2f", v)
		}
		fmt.Fprintln(w, line)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "   note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// Get returns the value at (x, series), for assertions in tests.
func (t *Table) Get(x, series string) (float64, bool) {
	si := -1
	for i, s := range t.Series {
		if s == series {
			si = i
			break
		}
	}
	if si < 0 {
		return 0, false
	}
	for _, r := range t.Rows {
		if r.X == x && si < len(r.Vals) {
			return r.Vals[si], true
		}
	}
	return 0, false
}

// Scale sizes an experiment run.
type Scale struct {
	LatReps int   // repetitions per latency point
	AppOps  int64 // operations per application run
	Clients int   // concurrent client processes
	Records int64 // YCSB keyspace
	Nodes   int64 // LinkBench graph size
}

// Quick is the CI-sized scale; Full approaches the paper's run lengths.
var (
	Quick = Scale{LatReps: 10, AppOps: 3000, Clients: 8, Records: 1000, Nodes: 400}
	Full  = Scale{LatReps: 50, AppOps: 30000, Clients: 16, Records: 10000, Nodes: 4000}
)

// Device factories shared by the experiments.

// DC builds a DC-SSD (PM963-class) device.
func DC(e *sim.Env) *device.Device { return device.New(e, device.DCSSD()) }

// ULL builds a ULL-SSD (Z-SSD-class) device.
func ULL(e *sim.Env) *device.Device { return device.New(e, device.ULLSSD()) }

// SSD2B builds a full-spec 2B-SSD.
func SSD2B(e *sim.Env) *core.TwoBSSD { return core.New(e, core.DefaultConfig()) }

// Spec renders Table I.
func Spec() *Table {
	t := &Table{ID: "tab1", Title: "2B-SSD specification (Table I)", XLabel: "Item", Series: []string{"-"}}
	for _, row := range core.DefaultSpec().Rows() {
		t.Rows = append(t.Rows, Row{X: row[0] + ": " + row[1]})
	}
	return t
}

// Experiment is one runnable artifact; Run writes its tables to w.
type Experiment struct {
	ID  string
	Run func(w io.Writer)
}

// Experiments returns every paper artifact of `bench2b all` at scale s,
// in canonical print order.
func Experiments(s Scale) []Experiment {
	return []Experiment{
		{"tab1", func(w io.Writer) { Spec().Print(w) }},
		{"fig7a", func(w io.Writer) { Fig7a(s).Print(w) }},
		{"fig7b", func(w io.Writer) { Fig7b(s).Print(w) }},
		{"fig8a", func(w io.Writer) { Fig8a(s).Print(w) }},
		{"fig8b", func(w io.Writer) { Fig8b(s).Print(w) }},
		{"fig9", func(w io.Writer) {
			Fig9PG(s).Print(w)
			Fig9LSM(s).Print(w)
			Fig9AOF(s).Print(w)
		}},
		{"fig10", func(w io.Writer) { Fig10(s).Print(w) }},
		{"commit", func(w io.Writer) { CommitOverhead(s).Print(w) }},
		{"waf", func(w io.Writer) { WAFReduction(s).Print(w) }},
		{"mixed", func(w io.Writer) { MixedWorkload(s).Print(w) }},
		{"recovery", func(w io.Writer) { Recovery(s).Print(w) }},
		{"tail", func(w io.Writer) { TailLatency(s).Print(w) }},
		{"smallread", func(w io.Writer) { SmallRead(s).Print(w) }},
		{"pmr", func(w io.Writer) { PMRComparison(s).Print(w) }},
		{"journal", func(w io.Writer) { Journaling(s).Print(w) }},
		{"qd", func(w io.Writer) { QueueDepth(s).Print(w) }},
		{"probe", func(w io.Writer) { Probe(s).Print(w) }},
		{"ablations", func(w io.Writer) {
			AblationWriteCombining(s).Print(w)
			AblationDoubleBuffering(s).Print(w)
			AblationGroupCommit(s).Print(w)
		}},
	}
}
