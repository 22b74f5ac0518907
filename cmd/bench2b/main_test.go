package main

import (
	"bytes"
	"encoding/json"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"unicode"

	"twobssd/internal/bench"
)

// TestGate runs the -benchgate rules against a baseline file: each
// case perturbs the baseline or the current run, and the gate must
// fail with the named regression, pass, or skip with a notice.
func TestGate(t *testing.T) {
	report := func() kernelReport {
		return kernelReport{
			NumCPU:         runtime.NumCPU(),
			EventsPerSec:   1e6,
			AllocsPerEvent: 0.30,
			Partition:      &bench.PartitionReport{Speedup: 1.6, Identical: true},
			Steady:         &bench.SteadyReport{AllocsPerEvent: 0.09},
		}
	}
	cases := []struct {
		name            string
		base, cur       func(*kernelReport)
		wantErr, notice string // "" = pass, no notice
	}{
		{name: "identical report passes"},
		{name: "events/sec within 20% passes", cur: func(r *kernelReport) { r.EventsPerSec = 0.81e6 }},
		{name: "events/sec drop past 20% fails", cur: func(r *kernelReport) { r.EventsPerSec = 0.79e6 },
			wantErr: "events/sec regressed"},
		{name: "allocs/event within 1.1x+0.02 passes", cur: func(r *kernelReport) { r.AllocsPerEvent = 0.34 }},
		{name: "allocs/event past 1.1x+0.02 fails", cur: func(r *kernelReport) { r.AllocsPerEvent = 0.36 },
			wantErr: "allocs/event regressed"},
		{name: "steady-state allocs/event past 1.1x+0.02 fails",
			cur:     func(r *kernelReport) { r.Steady = &bench.SteadyReport{AllocsPerEvent: 0.12} },
			wantErr: "steady-state allocs/event regressed"},
		{name: "collapsed partition speedup fails",
			cur:     func(r *kernelReport) { r.Partition = &bench.PartitionReport{Speedup: 1.1} },
			wantErr: "partition speedup regressed"},
		{name: "num_cpu mismatch skips the speedup check",
			base:   func(r *kernelReport) { r.NumCPU++ },
			cur:    func(r *kernelReport) { r.Partition = &bench.PartitionReport{Speedup: 0.5} },
			notice: "skipping partition-speedup check"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base, cur := report(), report()
			if tc.base != nil {
				tc.base(&base)
			}
			if tc.cur != nil {
				tc.cur(&cur)
			}
			data, err := json.Marshal(base)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "base.json")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			var notes bytes.Buffer
			err = gate(cur, path, &notes)
			if (err == nil) != (tc.wantErr == "") || (err != nil && !strings.Contains(err.Error(), tc.wantErr)) {
				t.Fatalf("gate error = %v, want %q", err, tc.wantErr)
			}
			if !strings.Contains(notes.String(), tc.notice) || (tc.notice == "" && notes.Len() > 0) {
				t.Fatalf("notes = %q, want %q", notes.String(), tc.notice)
			}
		})
	}
}

// A baseline the gate cannot read or parse is an error, never a pass.
func TestGateBadBaseline(t *testing.T) {
	dir := t.TempDir()
	if err := gate(kernelReport{}, filepath.Join(dir, "missing.json"), &bytes.Buffer{}); err == nil {
		t.Fatal("missing baseline passed the gate")
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"events_per_sec": `), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := gate(kernelReport{}, bad, &bytes.Buffer{}); err == nil || !strings.Contains(err.Error(), "parsing") {
		t.Fatalf("malformed baseline: err = %v, want a parse error", err)
	}
}

// The package doc is the command's manual: it must name every
// experiment the bench registries define, so a new artifact cannot
// ship undocumented.
func TestDocNamesEveryExperiment(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "main.go", nil, parser.ParseComments|parser.PackageClauseOnly)
	if err != nil {
		t.Fatal(err)
	}
	if f.Doc == nil {
		t.Fatal("main.go has no package doc")
	}
	words := map[string]bool{}
	for _, w := range strings.FieldsFunc(f.Doc.Text(), func(r rune) bool {
		return !unicode.IsLetter(r) && !unicode.IsDigit(r) && r != '-'
	}) {
		words[w] = true
	}
	for _, ex := range append(bench.Experiments(bench.Quick), bench.Reliability(bench.Quick, 0)...) {
		if !words[ex.ID] {
			t.Errorf("package doc does not name experiment %q", ex.ID)
		}
	}
}
