// `bench2b wal-life`: the segmented-WAL lifecycle evaluation. Part
// one is a feature microbenchmark — every lifecycle operation (single
// and group commit, rotation, checkpoint+truncation, tail streaming,
// chain recovery) timed on both the paper's BA byte path and the
// block+flush baseline, one deterministic env per mode. Part two is
// the fault sweep: the walseg crash campaigns (internal/bench/walseg.go)
// on both modes, with rotation/checkpoint/truncation-instant triggers
// and torn-tail repair, gating on 0 lost / 0 phantom / 0 repair
// failures. Reports are byte-identical at any -j.
package bench

import (
	"bytes"
	"fmt"
	"io"

	"twobssd/internal/core"
	"twobssd/internal/sim"
	"twobssd/internal/wal"
)

// walLifeStack builds one lifecycle measurement env: the scaled-down
// crash stack plus a segmented log in the given mode (same geometry as
// the walseg crash driver: 16 KB segment files, 4-slot ring).
func walLifeConfig(s *crashStack, mode wal.CommitMode) wal.SegConfig {
	ps := int64(s.ssd.PageSize())
	cfg := wal.SegConfig{
		Mode:              mode,
		FS:                s.fs,
		Name:              "seglog",
		SegmentFileBytes:  4 * ps,
		Ring:              4,
		InnerSegmentBytes: 2 * int(ps),
	}
	if mode == wal.BA {
		cfg.SSD = s.ssd
		cfg.EIDs = []core.EID{0, 1}
		cfg.DoubleBuffer = true
	}
	return cfg
}

// walLifeRow is one mode's feature measurements, all in µs.
type walLifeRow struct {
	commit1      float64 // single committer commit latency
	commit8      float64 // commit latency with 8 concurrent committers
	perFlush     float64 // committers coalesced per group flush
	rotate       float64 // seal + recycle per rotation
	checkpoint   float64 // meta write + truncation per checkpoint
	tailLag      float64 // append→tail-reader delivery lag
	recover      float64 // full chain scan + replay
	truncations  float64
	tornRepaired float64
}

func usOf(d sim.Duration, n uint64) float64 {
	if n == 0 {
		return 0
	}
	return float64(d) / float64(n) / 1e3
}

// walLifeFeatures drives one mode through every lifecycle feature on a
// fresh env and returns the per-feature timings.
func walLifeFeatures(mode wal.CommitMode) (walLifeRow, error) {
	env := sim.NewEnv()
	var row walLifeRow
	var runErr error
	env.Go("wal-life", func(p *sim.Proc) {
		fail := func(err error) { runErr = err }
		s := newCrashStack(env)
		sl, err := wal.OpenSegmented(env, walLifeConfig(s, mode))
		if err != nil {
			fail(err)
			return
		}
		small := func(i int) string { return crashValue(crashKey("wl", i)) }

		// Single committer: small records, append+commit each.
		base := sl.Stats()
		for i := 0; i < 24; i++ {
			lsn, err := sl.Append(p, []byte(small(i)))
			if err == nil {
				err = sl.Commit(p, lsn)
			}
			if err != nil {
				fail(err)
				return
			}
		}
		d1 := sl.Stats()
		row.commit1 = usOf(d1.CommitTime-base.CommitTime, d1.Commits-base.Commits)

		// Group commit: 8 concurrent committers, 8 records each.
		wg := env.NewWaitGroup("wal-life.committers")
		wg.Add(8)
		for c := 0; c < 8; c++ {
			env.GoIdx("wal-life.commit", c, func(p *sim.Proc, c int) {
				defer wg.Done()
				for i := 0; i < 8; i++ {
					lsn, err := sl.Append(p, []byte(small(100+c*8+i)))
					if err == nil {
						err = sl.Commit(p, lsn)
					}
					if err != nil {
						runErr = err
						return
					}
				}
			})
		}
		wg.Wait(p)
		if runErr != nil {
			return
		}
		d8 := sl.Stats()
		row.commit8 = usOf(d8.CommitTime-d1.CommitTime, d8.Commits-d1.Commits)
		row.perFlush = float64(d8.Commits-d1.Commits) / float64(d8.GroupFlushes-d1.GroupFlushes)

		// Lifecycle churn with a tail reader attached: big records force
		// rotations, periodic checkpoints truncate behind them.
		var lagSum sim.Duration
		var lagN int
		var produced bool
		tailDone := env.NewSignal("wal-life.taildone")
		r := sl.Tail(sl.DurableLSN())
		env.Go("wal-life.tail", func(p *sim.Proc) {
			defer tailDone.Fire()
			for {
				rec, ok, err := r.TryNext()
				if err != nil {
					return
				}
				if ok {
					lagSum += sim.Duration(env.Now() - rec.At)
					lagN++
					continue
				}
				if produced {
					return // caught up with the final frontier
				}
				sl.WaitTail(p)
			}
		})
		for i := 0; i < 40; i++ {
			payload := walSegPayload(crashKey("wl-big", i))
			lsn, err := sl.Append(p, []byte(payload))
			if err == nil {
				err = sl.Commit(p, lsn)
			}
			if err != nil {
				fail(err)
				return
			}
			if i%12 == 11 {
				if err := sl.Checkpoint(p, lsn); err != nil {
					fail(err)
					return
				}
			}
		}
		if err := sl.Drain(p); err != nil {
			fail(err)
			return
		}
		produced = true
		sl.WakeTail()
		tailDone.Wait(p)
		r.Close()
		dl := sl.Stats()
		row.rotate = usOf(dl.RotateTime-d8.RotateTime, dl.Rotations-d8.Rotations)
		row.checkpoint = usOf(dl.CheckpointTime-d8.CheckpointTime, dl.Checkpoints-d8.Checkpoints)
		row.truncations = float64(dl.Truncations - d8.Truncations)
		if lagN > 0 {
			row.tailLag = float64(lagSum) / float64(lagN) / 1e3
		}

		// Chain recovery: flush the live log down, then scan + replay it
		// from NAND through a second handle (stale recycled-slot bytes
		// past the tail are repaired like after a real crash).
		if err := sl.FlushToNAND(p); err != nil {
			fail(err)
			return
		}
		rl, err := wal.OpenSegmented(env, walLifeConfig(s, mode))
		if err != nil {
			fail(err)
			return
		}
		if _, err := rl.Recover(p, nil); err != nil {
			fail(err)
			return
		}
		dr := rl.Stats()
		row.recover = usOf(dr.RecoverTime-dl.RecoverTime, 1)
		row.tornRepaired = float64(dr.TornRepairs - dl.TornRepairs)
	})
	env.Run()
	env.Shutdown()
	return row, runErr
}

// walLifeTable renders both modes' feature rows as the BA-vs-baseline
// comparison table.
func walLifeTable() (*Table, error) {
	ba, err := walLifeFeatures(wal.BA)
	if err != nil {
		return nil, fmt.Errorf("wal-life BA: %w", err)
	}
	sync, err := walLifeFeatures(wal.Sync)
	if err != nil {
		return nil, fmt.Errorf("wal-life sync: %w", err)
	}
	t := &Table{
		ID:     "wal-life",
		Title:  "segmented WAL lifecycle: BA byte path vs block+flush",
		XLabel: "feature",
		Series: []string{"ba", "block+flush"},
	}
	t.AddRow("commit_1_us", ba.commit1, sync.commit1)
	t.AddRow("commit_8_us", ba.commit8, sync.commit8)
	t.AddRow("commits/flush", ba.perFlush, sync.perFlush)
	t.AddRow("rotate_us", ba.rotate, sync.rotate)
	t.AddRow("checkpoint_us", ba.checkpoint, sync.checkpoint)
	t.AddRow("truncations", ba.truncations, sync.truncations)
	t.AddRow("tail_lag_us", ba.tailLag, sync.tailLag)
	t.AddRow("recover_us", ba.recover, sync.recover)
	t.AddRow("torn_repaired", ba.tornRepaired, sync.tornRepaired)
	t.Notes = append(t.Notes,
		"group commit: 8 concurrent committers coalesced per flush burst",
		"recover: full segment-chain scan + replay from NAND media")
	return t, nil
}

// RunWalLife runs the lifecycle evaluation: the feature table, then
// the walseg crash campaigns on both modes with pointsPer crash points
// each. Returns an error when any point loses a committed record,
// recovers a phantom, or fails a torn-tail repair.
func RunWalLife(r *Runner, w io.Writer, pointsPer int) error {
	t, err := walLifeTable()
	if err != nil {
		return err
	}
	t.Print(w)
	return RunCrash(r, w, []string{"walseg-ba", "walseg-sync"}, pointsPer)
}

// RunWalLifeSmoke is the CI gate: a smaller sweep executed twice, with
// the two reports compared byte for byte before the first is emitted —
// any nondeterminism in the lifecycle fails the job alongside any
// durability or repair violation.
func RunWalLifeSmoke(r *Runner, w io.Writer, pointsPer int) error {
	var a, b bytes.Buffer
	if err := RunWalLife(r, &a, pointsPer); err != nil {
		return err
	}
	if err := RunWalLife(r, &b, pointsPer); err != nil {
		return err
	}
	if a.String() != b.String() {
		return fmt.Errorf("bench: wal-life smoke is nondeterministic across identical runs")
	}
	_, err := w.Write(a.Bytes())
	return err
}
