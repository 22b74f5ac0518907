package bench

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"twobssd/internal/core"
	"twobssd/internal/fault"
	"twobssd/internal/sim"
	"twobssd/internal/vfs"
	"twobssd/internal/wal"
)

// A short sweep over every workload must hold the durability contract.
func TestCrashCampaignsSmoke(t *testing.T) {
	var buf bytes.Buffer
	if err := RunCrash(runner, &buf, CrashWorkloads(), 6); err != nil {
		t.Fatalf("RunCrash: %v\n%s", err, buf.String())
	}
	out := buf.String()
	for _, name := range CrashWorkloads() {
		if !strings.Contains(out, "campaign "+name+":") {
			t.Errorf("report missing campaign %q:\n%s", name, out)
		}
	}
	if !strings.Contains(out, "violations: 0") {
		t.Errorf("expected clean campaigns:\n%s", out)
	}
}

// Installing an injector with an empty plan must not perturb the
// fault-free virtual timing: the hooks only observe.
func TestEmptyPlanDoesNotPerturbTiming(t *testing.T) {
	run := func(install bool) sim.Time {
		env := sim.NewEnv()
		if install {
			fault.Install(env, fault.Plan{Seed: 123})
		}
		env.Go("wal", func(p *sim.Proc) {
			cyc, err := buildWALCrash(env, p)
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			for i := 0; i < 16; i++ {
				if _, err := cyc.Step(p, i); err != nil {
					t.Fatalf("step %d: %v", i, err)
				}
			}
		})
		env.Run()
		return env.Now()
	}
	plain, injected := run(false), run(true)
	if plain != injected {
		t.Fatalf("virtual time shifted by an idle injector: %d vs %d ns", int64(plain), int64(injected))
	}
}

// With an undersized capacitor bank the dump reports ErrInsufficient,
// nothing persists (Persisted=false), and recovery must fall back to a
// clean WAL replay of whatever reached NAND — no torn garbage, no
// phantom records, and the log stays usable.
func TestCapacitorExhaustionFallsBackToWALReplay(t *testing.T) {
	cfg := crashStackConfig()
	cfg.CapacitorsUF = []float64{1} // ~72 µJ: hopeless for a 1 MB dump
	env := sim.NewEnv()
	env.Go("t", func(p *sim.Proc) {
		ssd := core.New(env, cfg)
		fs := vfs.New(ssd.Device())
		f, err := fs.Create("txlog", 2<<20)
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		wcfg := wal.Config{
			Mode:         wal.BA,
			File:         f,
			SegmentBytes: cfg.BABufferBytes / 2,
			SSD:          ssd,
			EIDs:         []core.EID{0, 1},
			DoubleBuffer: true,
		}
		l, err := wal.Open(env, wcfg)
		if err != nil {
			t.Fatalf("wal open: %v", err)
		}
		for i := 0; i < 10; i++ {
			lsn, err := l.Append(p, []byte(crashValue(crashKey("cap", i))))
			if err != nil {
				t.Fatalf("append: %v", err)
			}
			if err := l.Commit(p, lsn); err != nil {
				t.Fatalf("commit: %v", err)
			}
		}
		rep, err := ssd.PowerLoss(p)
		if !errors.Is(err, core.ErrInsufficient) {
			t.Fatalf("power loss err = %v, want ErrInsufficient", err)
		}
		if rep.Persisted {
			t.Fatal("dump persisted on an exhausted capacitor bank")
		}
		if err := ssd.PowerOn(p); err != nil {
			t.Fatalf("power on: %v", err)
		}
		l2, err := wal.Open(env, wcfg)
		if err != nil {
			t.Fatalf("wal reopen: %v", err)
		}
		got := 0
		err = l2.Recover(p, func(_ wal.LSN, payload []byte) error {
			got++
			if keyOf(string(payload)) == "" {
				t.Errorf("replayed garbage record %q", payload)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("recover: %v", err)
		}
		// All ten commits lived only in the BA-buffer; with the dump
		// lost the block-mode scan legitimately finds nothing.
		if got != 0 {
			t.Errorf("recovered %d records from a lost buffer", got)
		}
		// The log must keep working after the fallback.
		lsn, err := l2.Append(p, []byte(crashValue("cap-after")))
		if err != nil {
			t.Fatalf("append after recovery: %v", err)
		}
		if err := l2.Commit(p, lsn); err != nil {
			t.Fatalf("commit after recovery: %v", err)
		}
	})
	env.Run()
}

// A dump cut mid-flight must surface as ErrDumpTorn with
// Persisted=false — and never restore a half-written image.
func TestDumpCutLeavesNoTornImage(t *testing.T) {
	env := sim.NewEnv()
	fault.Install(env, fault.Plan{Seed: 5, CutDumpAfterPages: 3})
	env.Go("t", func(p *sim.Proc) {
		ssd := core.New(env, crashStackConfig())
		fs := vfs.New(ssd.Device())
		f, err := fs.Create("txlog", 2<<20)
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		wcfg := wal.Config{
			Mode:         wal.BA,
			File:         f,
			SegmentBytes: crashStackConfig().BABufferBytes / 2,
			SSD:          ssd,
			EIDs:         []core.EID{0, 1},
			DoubleBuffer: true,
		}
		l, err := wal.Open(env, wcfg)
		if err != nil {
			t.Fatalf("wal open: %v", err)
		}
		lsn, err := l.Append(p, []byte(crashValue("torn-0")))
		if err != nil {
			t.Fatalf("append: %v", err)
		}
		if err := l.Commit(p, lsn); err != nil {
			t.Fatalf("commit: %v", err)
		}
		rep, err := ssd.PowerLoss(p)
		if !errors.Is(err, core.ErrDumpTorn) {
			t.Fatalf("power loss err = %v, want ErrDumpTorn", err)
		}
		if rep.Persisted {
			t.Fatal("torn dump reported as persisted")
		}
		if err := ssd.PowerOn(p); err != nil {
			t.Fatalf("power on: %v", err)
		}
		if ssd.HasDump() {
			t.Fatal("torn dump image survived power-on")
		}
	})
	env.Run()
}
