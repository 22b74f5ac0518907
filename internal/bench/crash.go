// The crash-recovery campaigns behind `bench2b crash`: for each
// storage engine ported to the 2B-SSD, sweep hundreds of deterministic
// power-loss points across the workload's virtual time and event
// classes, then verify the durability contract after every crash —
// every committed record recovered (when the capacitor dump
// persisted), and no phantom records that were never written.
//
// Each crash point builds the whole stack fresh on its own sim.Env, so
// points run in parallel through the Runner and the reports are
// byte-identical at any -j.
package bench

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"

	"twobssd/internal/core"
	"twobssd/internal/fault"
	"twobssd/internal/jfs"
	"twobssd/internal/kvaof"
	"twobssd/internal/lsm"
	"twobssd/internal/pglite"
	"twobssd/internal/sim"
	"twobssd/internal/vfs"
	"twobssd/internal/wal"
)

// crashStackConfig scales the 2B-SSD down so one crash point costs
// milliseconds of host time: a 16 MB flash array with a 1 MB BA-buffer
// whose capacitor dump still fits the stock energy budget.
func crashStackConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Base.Nand.Channels = 2
	cfg.Base.Nand.DiesPerChannel = 2
	cfg.Base.Nand.BlocksPerDie = 32
	cfg.Base.Nand.PagesPerBlock = 32
	cfg.Base.FTL.OverProvision = 0.2
	cfg.Base.WriteBufferPages = 64
	cfg.Base.DrainWorkers = 4
	cfg.BABufferBytes = 256 * 4096 // 1 MB
	return cfg
}

// crashStack is the per-point device stack shared by every workload
// driver; it provides the Crash half of the fault.Cycle contract.
type crashStack struct {
	env *sim.Env
	ssd *core.TwoBSSD
	fs  *vfs.FS
}

func newCrashStack(env *sim.Env) *crashStack {
	ssd := core.New(env, crashStackConfig())
	return &crashStack{env: env, ssd: ssd, fs: vfs.New(ssd.Device())}
}

// Crash cuts power. An insufficient-energy or torn-dump result is a
// legitimate modeled outcome, not a harness error: it reports
// persisted=false and the verifier only demands block-mode durability.
func (s *crashStack) Crash(p *sim.Proc) (bool, float64, error) {
	rep, err := s.ssd.PowerLoss(p)
	if err != nil && !errors.Is(err, core.ErrInsufficient) && !errors.Is(err, core.ErrDumpTorn) {
		return false, 0, err
	}
	return rep.Persisted, rep.EnergyUsedJ, nil
}

func crashKey(prefix string, i int) string { return fmt.Sprintf("%s-%04d", prefix, i) }

// crashValue embeds the key so a recovered record self-identifies; the
// tail pads records past one WC burst.
func crashValue(key string) string { return key + "|" + strings.Repeat("v", 40) }

// keyOf recovers the key from a record payload written by crashValue.
func keyOf(payload string) string {
	if j := strings.IndexByte(payload, '|'); j >= 0 {
		return payload[:j]
	}
	return payload
}

// ---- wal: raw write-ahead log, BA commit, double-buffered ----------

type walCrash struct {
	*crashStack
	cfg  wal.Config
	log  *wal.Log
	want map[string]string
}

func buildWALCrash(env *sim.Env, p *sim.Proc) (fault.Cycle, error) {
	s := newCrashStack(env)
	f, err := s.fs.Create("txlog", 2<<20)
	if err != nil {
		return nil, err
	}
	// Two-page segments make the workload rotate several times, so the
	// campaign also lands crash points inside BA_FLUSH page moves and
	// the NAND programs they issue — not just between commits.
	cfg := wal.Config{
		Mode:         wal.BA,
		File:         f,
		SegmentBytes: 2 * s.ssd.PageSize(),
		SSD:          s.ssd,
		EIDs:         []core.EID{0, 1},
		DoubleBuffer: true,
	}
	l, err := wal.Open(env, cfg)
	if err != nil {
		return nil, err
	}
	return &walCrash{crashStack: s, cfg: cfg, log: l, want: map[string]string{}}, nil
}

func (c *walCrash) Step(p *sim.Proc, i int) (string, error) {
	key := crashKey("wal", i)
	payload := crashValue(key) + strings.Repeat("w", 160)
	c.want[key] = payload
	lsn, err := c.log.Append(p, []byte(payload))
	if err != nil {
		return "", err
	}
	return key, c.log.Commit(p, lsn)
}

// Stage appends without committing: the record sits in the WC/BA-buffer
// and may legitimately survive via the capacitor dump.
func (c *walCrash) Stage(p *sim.Proc) (string, error) {
	key := "wal-staged"
	payload := crashValue(key)
	c.want[key] = payload
	if _, err := c.log.Append(p, []byte(payload)); err != nil {
		return "", err
	}
	return key, nil
}

func (c *walCrash) Recover(p *sim.Proc) (recovered, phantoms []string, err error) {
	if err := c.ssd.PowerOn(p); err != nil {
		return nil, nil, err
	}
	l, err := wal.Open(c.env, c.cfg)
	if err != nil {
		return nil, nil, err
	}
	err = l.Recover(p, func(_ wal.LSN, payload []byte) error {
		s := string(payload)
		key := keyOf(s)
		if c.want[key] == s {
			recovered = append(recovered, key)
		} else {
			phantoms = append(phantoms, key)
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return recovered, phantoms, nil
}

// ---- lsm: RocksDB-like store, WAL on BA-buffer slots ---------------

type lsmCrash struct {
	*crashStack
	cfg  lsm.Config
	db   *lsm.DB
	ops  int
	want map[string]string
}

func buildLSMCrash(ops int) func(env *sim.Env, p *sim.Proc) (fault.Cycle, error) {
	return func(env *sim.Env, p *sim.Proc) (fault.Cycle, error) {
		s := newCrashStack(env)
		cfg := lsm.Config{
			DataFS:        s.fs,
			LogFS:         s.fs,
			WALMode:       wal.BA,
			SSD:           s.ssd,
			EIDs:          []core.EID{0, 1, 2, 3},
			MemtableBytes: 128 << 10,
			WALBytes:      s.ssd.Config().BABufferBytes / 4,
		}
		db, err := lsm.Open(env, p, cfg)
		if err != nil {
			return nil, err
		}
		return &lsmCrash{crashStack: s, cfg: cfg, db: db, ops: ops, want: map[string]string{}}, nil
	}
}

func (c *lsmCrash) Step(p *sim.Proc, i int) (string, error) {
	key := crashKey("lsm", i)
	value := crashValue(key)
	c.want[key] = value
	return key, c.db.Put(p, []byte(key), []byte(value))
}

// Stage: a Put is commit-or-nothing in the LSM port; no uncommitted path.
func (c *lsmCrash) Stage(p *sim.Proc) (string, error) { return "", nil }

func (c *lsmCrash) Recover(p *sim.Proc) (recovered, phantoms []string, err error) {
	if err := c.ssd.PowerOn(p); err != nil {
		return nil, nil, err
	}
	db, err := lsm.Open(c.env, p, c.cfg)
	if err != nil {
		return nil, nil, err
	}
	for i := 0; i < c.ops; i++ {
		key := crashKey("lsm", i)
		v, found, err := db.Get(p, []byte(key))
		if err != nil {
			return nil, nil, err
		}
		if !found {
			continue
		}
		if string(v) == c.want[key] {
			recovered = append(recovered, key)
		} else {
			phantoms = append(phantoms, key)
		}
	}
	return recovered, phantoms, nil
}

// ---- pglite: PostgreSQL-like engine, XLOG on the BA-buffer ---------

const pgCrashTable = "crash"

type pgCrash struct {
	*crashStack
	cfg  pglite.Config
	eng  *pglite.Engine
	ops  int
	want map[string]string
}

func buildPGCrash(ops int) func(env *sim.Env, p *sim.Proc) (fault.Cycle, error) {
	return func(env *sim.Env, p *sim.Proc) (fault.Cycle, error) {
		s := newCrashStack(env)
		cfg := pglite.Config{
			DataFS:          s.fs,
			LogFS:           s.fs,
			WALMode:         wal.BA,
			SSD:             s.ssd,
			EIDs:            []core.EID{0, 1},
			SegmentBytes:    s.ssd.Config().BABufferBytes / 2,
			LogFileBytes:    1 << 20,
			HeapFileBytes:   1 << 20,
			BufferPoolPages: 256,
		}
		eng, err := pglite.Open(env, p, cfg)
		if err != nil {
			return nil, err
		}
		if err := eng.CreateTable(pgCrashTable); err != nil {
			return nil, err
		}
		return &pgCrash{crashStack: s, cfg: cfg, eng: eng, ops: ops, want: map[string]string{}}, nil
	}
}

func (c *pgCrash) Step(p *sim.Proc, i int) (string, error) {
	key := crashKey("pg", i)
	value := crashValue(key)
	c.want[key] = value
	tx := c.eng.Begin()
	tx.Upsert(pgCrashTable, []byte(key), []byte(value))
	return key, tx.Commit(p)
}

// Stage opens a transaction and upserts without committing: the change
// lives only in the host-side txn buffer and must never survive.
func (c *pgCrash) Stage(p *sim.Proc) (string, error) {
	key := "pg-staged"
	c.want[key] = crashValue(key)
	tx := c.eng.Begin()
	tx.Upsert(pgCrashTable, []byte(key), []byte(c.want[key]))
	return key, nil
}

func (c *pgCrash) Recover(p *sim.Proc) (recovered, phantoms []string, err error) {
	if err := c.ssd.PowerOn(p); err != nil {
		return nil, nil, err
	}
	eng, err := pglite.Open(c.env, p, c.cfg)
	if err != nil {
		return nil, nil, err
	}
	// Replay creates the table when any batch survived; the explicit
	// create covers the crash-before-first-commit points.
	if err := eng.CreateTable(pgCrashTable); err != nil {
		return nil, nil, err
	}
	keys, values, err := eng.Begin().Scan(p, pgCrashTable, nil, c.ops*2+8)
	if err != nil {
		return nil, nil, err
	}
	for i, k := range keys {
		key := string(k)
		if c.want[key] == string(values[i]) && c.want[key] != "" {
			recovered = append(recovered, key)
		} else {
			phantoms = append(phantoms, key)
		}
	}
	return recovered, phantoms, nil
}

// ---- kvaof: Redis-like store, AOF pinned over the whole buffer -----

type aofCrash struct {
	*crashStack
	cfg  kvaof.Config
	st   *kvaof.Store
	want map[string]string
}

func buildAOFCrash(env *sim.Env, p *sim.Proc) (fault.Cycle, error) {
	s := newCrashStack(env)
	cfg := kvaof.Config{
		LogFS:        s.fs,
		WALMode:      wal.BA,
		SSD:          s.ssd,
		EID:          0,
		SegmentBytes: s.ssd.Config().BABufferBytes,
		AOFBytes:     2 << 20,
	}
	st, err := kvaof.Open(env, p, cfg)
	if err != nil {
		return nil, err
	}
	return &aofCrash{crashStack: s, cfg: cfg, st: st, want: map[string]string{}}, nil
}

func (c *aofCrash) Step(p *sim.Proc, i int) (string, error) {
	key := crashKey("kv", i)
	value := crashValue(key)
	c.want[key] = value
	return key, c.st.Set(p, []byte(key), []byte(value))
}

// Stage: every AOF command commits before it applies; no uncommitted path.
func (c *aofCrash) Stage(p *sim.Proc) (string, error) { return "", nil }

func (c *aofCrash) Recover(p *sim.Proc) (recovered, phantoms []string, err error) {
	if err := c.ssd.PowerOn(p); err != nil {
		return nil, nil, err
	}
	st, err := kvaof.Open(c.env, p, c.cfg)
	if err != nil {
		return nil, nil, err
	}
	for _, key := range st.Keys() {
		v, _ := st.Get(p, []byte(key))
		if c.want[key] == string(v) && c.want[key] != "" {
			recovered = append(recovered, key)
		} else {
			phantoms = append(phantoms, key)
		}
	}
	return recovered, phantoms, nil
}

// ---- jfs: journaling filesystem, journal on the BA-buffer ----------

type jfsCrash struct {
	*crashStack
	cfg  jfs.Config
	st   *jfs.Store
	ops  int
	want map[uint32][]byte
}

func buildJFSCrash(ops int) func(env *sim.Env, p *sim.Proc) (fault.Cycle, error) {
	return func(env *sim.Env, p *sim.Proc) (fault.Cycle, error) {
		s := newCrashStack(env)
		home, err := s.fs.Create("home", int64(ops+2)*jfs.BlockSize)
		if err != nil {
			return nil, err
		}
		journal, err := s.fs.Create("journal", 1<<20)
		if err != nil {
			return nil, err
		}
		cfg := jfs.Config{
			Home:            home,
			Journal:         journal,
			Mode:            wal.BA,
			SSD:             s.ssd,
			EIDs:            []core.EID{0, 1},
			SegmentBytes:    s.ssd.Config().BABufferBytes / 2,
			CheckpointEvery: 1 << 20,
		}
		st, err := jfs.Open(env, p, cfg)
		if err != nil {
			return nil, err
		}
		return &jfsCrash{crashStack: s, cfg: cfg, st: st, ops: ops, want: map[uint32][]byte{}}, nil
	}
}

// jfsBlock is the full padded home-block image for key i.
func jfsBlock(i int) []byte {
	b := make([]byte, jfs.BlockSize)
	copy(b, crashValue(crashKey("jfs", i)))
	return b
}

func (c *jfsCrash) Step(p *sim.Proc, i int) (string, error) {
	c.want[uint32(i)] = jfsBlock(i)
	tx := c.st.Begin()
	if err := tx.WriteBlock(uint32(i), c.want[uint32(i)]); err != nil {
		return "", err
	}
	return crashKey("jfs", i), tx.Commit(p)
}

// Stage writes one block in an open transaction and never commits it.
func (c *jfsCrash) Stage(p *sim.Proc) (string, error) {
	blk := uint32(c.ops)
	c.want[blk] = jfsBlock(c.ops)
	tx := c.st.Begin()
	if err := tx.WriteBlock(blk, c.want[blk]); err != nil {
		return "", err
	}
	return crashKey("jfs", c.ops), nil
}

func (c *jfsCrash) Recover(p *sim.Proc) (recovered, phantoms []string, err error) {
	if err := c.ssd.PowerOn(p); err != nil {
		return nil, nil, err
	}
	st, err := jfs.Open(c.env, p, c.cfg)
	if err != nil {
		return nil, nil, err
	}
	zero := make([]byte, jfs.BlockSize)
	for i := 0; i <= c.ops; i++ {
		data, err := st.ReadBlock(p, uint32(i))
		if err != nil {
			return nil, nil, err
		}
		switch {
		case bytes.Equal(data, c.want[uint32(i)]):
			recovered = append(recovered, crashKey("jfs", i))
		case bytes.Equal(data, zero): // never reached the home file
		default:
			phantoms = append(phantoms, crashKey("jfs", i))
		}
	}
	return recovered, phantoms, nil
}

// ---- campaign assembly ---------------------------------------------

// crashWorkload rows pin name, committed-op count and seed per
// workload; ops are sized so no workload rotates its memtable or
// checkpoints mid-campaign (those paths have their own experiments).
type crashWorkload struct {
	name  string
	ops   int
	seed  uint64
	build func(ops int) func(env *sim.Env, p *sim.Proc) (fault.Cycle, error)
	// tweak optionally adjusts per-point fault plans (fault.Campaign's
	// Tweak contract: pure in the point index).
	tweak func(i int, plan *fault.Plan)
}

// walSeg builds the segmented-WAL lifecycle engine in the given mode.
func walSeg(mode wal.CommitMode) func(ops int) func(*sim.Env, *sim.Proc) (fault.Cycle, error) {
	return func(ops int) func(*sim.Env, *sim.Proc) (fault.Cycle, error) { return buildWalSegCrash(mode, ops) }
}

var crashWorkloads = []crashWorkload{
	{"wal", 48, 0x2b55c0de0001, func(int) func(*sim.Env, *sim.Proc) (fault.Cycle, error) { return buildWALCrash }, nil},
	{"lsm", 32, 0x2b55c0de0002, buildLSMCrash, nil},
	{"pglite", 32, 0x2b55c0de0003, buildPGCrash, nil},
	{"kvaof", 40, 0x2b55c0de0004, func(int) func(*sim.Env, *sim.Proc) (fault.Cycle, error) { return buildAOFCrash }, nil},
	{"jfs", 32, 0x2b55c0de0005, buildJFSCrash, nil},
	// walseg runs a full segmented-WAL lifecycle (rotation, checkpoint
	// truncation, snapshot + chain-replay recovery) on the BA path,
	// with dump cuts on a point subset so torn-tail repair runs too.
	{"walseg", 48, 0x2b55c0de0006, walSeg(wal.BA), walLifeTweak},
	// The `bench2b wal-life` sweeps: the same checkpointing engine on
	// the BA byte path and on the block+flush baseline.
	{"walseg-ba", 48, 0x2b55c0de0106, walSeg(wal.BA), walLifeTweak},
	{"walseg-sync", 48, 0x2b55c0de0107, walSeg(wal.Sync), nil},
}

// CrashWorkloads lists every crash-campaign workload name in table
// order.
func CrashWorkloads() []string {
	names := make([]string, len(crashWorkloads))
	for i, w := range crashWorkloads {
		names[i] = w.name
	}
	return names
}

// NewCrashCampaign builds the named workload's campaign with the given
// number of crash points.
func NewCrashCampaign(workload string, pts int) (*fault.Campaign, error) {
	for _, w := range crashWorkloads {
		if w.name == workload {
			return &fault.Campaign{
				Name:   w.name,
				Points: pts,
				Ops:    w.ops,
				Seed:   w.seed,
				Build:  w.build(w.ops),
				Tweak:  w.tweak,
			}, nil
		}
	}
	return nil, fmt.Errorf("bench: unknown crash workload %q", workload)
}

// RunCrash sweeps pointsPer crash points over each named workload,
// streams each campaign's report to w, and returns an error when any
// point violated the durability contract. Points fan out through r;
// the reports are byte-identical at any parallelism.
func RunCrash(r *Runner, w io.Writer, names []string, pointsPer int) error {
	parallelFor := func(n int, fn func(i int)) {
		points(r, n, func(i int) struct{} { fn(i); return struct{}{} })
	}
	violations := 0
	for _, name := range names {
		c, err := NewCrashCampaign(name, pointsPer)
		if err != nil {
			return err
		}
		rep, err := c.Run(parallelFor)
		if err != nil {
			return err
		}
		if err := rep.WriteText(w); err != nil {
			return err
		}
		violations += len(rep.Violations())
	}
	if violations > 0 {
		return fmt.Errorf("bench: %d crash points violated the durability contract", violations)
	}
	return nil
}
