// Package twobssd's root benchmarks wrap every reproduced table and
// figure as a testing.B benchmark (one per paper artifact, per the
// DESIGN.md experiment index), plus the ablations. Each iteration
// regenerates the artifact on the simulated stack; the reported
// wall-clock time is the cost of the simulation itself, while the
// virtual-time results inside are deterministic.
//
// Run: go test -bench=. -benchmem
package twobssd_test

import (
	"io"
	"runtime"
	"testing"

	"twobssd/internal/bench"
)

// benchScale keeps testing.B iterations affordable while preserving
// every shape the assertions in internal/bench check.
var benchScale = bench.Scale{LatReps: 3, AppOps: 1000, Clients: 4, Records: 300, Nodes: 150}

// benchRunner fans each table's points out over every host CPU.
var benchRunner = bench.NewRunner(runtime.NumCPU(), nil)

func benchTable(b *testing.B, gen func(*bench.Runner, bench.Scale) *bench.Table) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		tab := gen(benchRunner, benchScale)
		tab.Print(io.Discard)
		if len(tab.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// serial adapts a table builder that has no independent points.
func serial(gen func(bench.Scale) *bench.Table) func(*bench.Runner, bench.Scale) *bench.Table {
	return func(_ *bench.Runner, s bench.Scale) *bench.Table { return gen(s) }
}

// BenchmarkTable1Spec regenerates Table I (device specification).
func BenchmarkTable1Spec(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Spec().Print(io.Discard)
	}
}

// BenchmarkFig7aReadLatency regenerates Fig 7(a): read latency versus
// request size for DC-SSD, ULL-SSD, 2B-SSD MMIO and read DMA.
func BenchmarkFig7aReadLatency(b *testing.B) { benchTable(b, bench.Fig7a) }

// BenchmarkFig7bWriteLatency regenerates Fig 7(b): write latency versus
// request size, including persistent MMIO (BA_SYNC).
func BenchmarkFig7bWriteLatency(b *testing.B) { benchTable(b, bench.Fig7b) }

// BenchmarkFig8aReadBandwidth regenerates Fig 8(a): QD1 read bandwidth
// versus request size, block I/O versus the internal datapath.
func BenchmarkFig8aReadBandwidth(b *testing.B) { benchTable(b, bench.Fig8a) }

// BenchmarkFig8bWriteBandwidth regenerates Fig 8(b): QD1 write
// bandwidth versus request size.
func BenchmarkFig8bWriteBandwidth(b *testing.B) { benchTable(b, bench.Fig8b) }

// BenchmarkFig9PGLinkbench regenerates the PostgreSQL/Linkbench panel
// of Fig 9 (pglite engine).
func BenchmarkFig9PGLinkbench(b *testing.B) { benchTable(b, bench.Fig9PG) }

// BenchmarkFig9LSMYCSB regenerates the RocksDB/YCSB-A panel of Fig 9
// (lsm engine, payload sweep).
func BenchmarkFig9LSMYCSB(b *testing.B) { benchTable(b, bench.Fig9LSM) }

// BenchmarkFig9AOFYCSB regenerates the Redis/YCSB-A panel of Fig 9
// (kvaof engine, payload sweep).
func BenchmarkFig9AOFYCSB(b *testing.B) { benchTable(b, bench.Fig9AOF) }

// BenchmarkFig10Architectures regenerates Fig 10: hybrid store versus
// heterogeneous memory (PM + block SSD), normalized throughput.
func BenchmarkFig10Architectures(b *testing.B) { benchTable(b, bench.Fig10) }

// BenchmarkCommitOverhead regenerates the "up to 26x" commit-overhead
// comparison (Section V-C).
func BenchmarkCommitOverhead(b *testing.B) { benchTable(b, bench.CommitOverhead) }

// BenchmarkWAFReduction regenerates the Section IV-A write-amplification
// comparison between block WAL and BA-WAL.
func BenchmarkWAFReduction(b *testing.B) { benchTable(b, bench.WAFReduction) }

// BenchmarkMixedWorkload regenerates the discussion-section check that
// block I/O is unaffected by concurrent memory-interface traffic.
func BenchmarkMixedWorkload(b *testing.B) { benchTable(b, bench.MixedWorkload) }

// BenchmarkRecoveryDump regenerates the power-loss dump/restore report
// (capacitor energy budget versus dump cost).
func BenchmarkRecoveryDump(b *testing.B) { benchTable(b, serial(bench.Recovery)) }

// BenchmarkTailLatency regenerates the commit-latency tail comparison
// (Section IV-A's "optimizes tail latencies").
func BenchmarkTailLatency(b *testing.B) { benchTable(b, bench.TailLatency) }

// BenchmarkSmallRead regenerates the Section VI bulk-write/small-read
// discussion experiment.
func BenchmarkSmallRead(b *testing.B) { benchTable(b, serial(bench.SmallRead)) }

// BenchmarkPMRComparison regenerates the Section VII extension: BA-WAL
// on the 2B-SSD versus on an NVMe PMR device (no internal datapath).
func BenchmarkPMRComparison(b *testing.B) { benchTable(b, bench.PMRComparison) }

// BenchmarkJournaling regenerates the file-system-journaling extension
// (Section IV's other motivating workload).
func BenchmarkJournaling(b *testing.B) { benchTable(b, bench.Journaling) }

// BenchmarkQueueDepth regenerates the queue-depth extension sweep.
func BenchmarkQueueDepth(b *testing.B) { benchTable(b, bench.QueueDepth) }

// BenchmarkAblationWriteCombining measures DESIGN.md ablation 4: MMIO
// write latency with and without write combining.
func BenchmarkAblationWriteCombining(b *testing.B) { benchTable(b, bench.AblationWriteCombining) }

// BenchmarkAblationDoubleBuffering measures DESIGN.md ablation 5:
// BA-WAL with and without double buffering.
func BenchmarkAblationDoubleBuffering(b *testing.B) { benchTable(b, bench.AblationDoubleBuffering) }

// BenchmarkAblationGroupCommit measures DESIGN.md ablation 7: group
// commit on the block-WAL baselines across client counts.
func BenchmarkAblationGroupCommit(b *testing.B) { benchTable(b, bench.AblationGroupCommit) }
