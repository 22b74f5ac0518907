package bench

import (
	"bytes"
	"errors"

	"twobssd/internal/core"
	"twobssd/internal/device"
	"twobssd/internal/kvaof"
	"twobssd/internal/linkbench"
	"twobssd/internal/lsm"
	"twobssd/internal/pglite"
	"twobssd/internal/sim"
	"twobssd/internal/vfs"
	"twobssd/internal/wal"
)

// LogDevice names the log-device configuration of one Fig 9/10 series.
type LogDevice int

// The configurations the paper compares.
const (
	LogDC    LogDevice = iota // DC-SSD, synchronous commit
	LogULL                    // ULL-SSD, synchronous commit
	Log2B                     // 2B-SSD with BA-WAL
	LogAsync                  // asynchronous commit (theoretical max)
	LogPMULL                  // PM buffer + ULL-SSD (Fig 10)
	LogPMDC                   // PM buffer + DC-SSD (Fig 10)
)

func (l LogDevice) String() string {
	switch l {
	case LogDC:
		return "DC-SSD"
	case LogULL:
		return "ULL-SSD"
	case Log2B:
		return "2B-SSD"
	case LogAsync:
		return "ASYNC"
	case LogPMULL:
		return "PM+ULL"
	case LogPMDC:
		return "PM+DC"
	default:
		return "?"
	}
}

// stack bundles the devices of one application run: a data device
// (never the device under test — the paper keeps user data in DRAM and
// sends only WAL logs to the log device) plus the log device.
type stack struct {
	env    *sim.Env
	dataFS *vfs.FS
	logFS  *vfs.FS
	ssd    *core.TwoBSSD // non-nil for Log2B
	mode   wal.CommitMode
}

func newStack(cfg LogDevice) *stack {
	e := sim.NewEnv()
	st := &stack{env: e}
	dataProf := device.ULLSSD()
	dataProf.Name = "data-" + dataProf.Name
	st.dataFS = vfs.New(device.New(e, dataProf))
	switch cfg {
	case LogDC:
		st.logFS = vfs.New(DC(e))
		st.mode = wal.Sync
	case LogULL:
		st.logFS = vfs.New(ULL(e))
		st.mode = wal.Sync
	case LogAsync:
		st.logFS = vfs.New(ULL(e))
		st.mode = wal.Async
	case LogPMULL:
		st.logFS = vfs.New(ULL(e))
		st.mode = wal.PM
	case LogPMDC:
		st.logFS = vfs.New(DC(e))
		st.mode = wal.PM
	case Log2B:
		st.ssd = SSD2B(e)
		st.logFS = vfs.New(st.ssd.Device())
		st.mode = wal.BA
	}
	return st
}

// ---- pglite <-> linkbench ----

// pgGraph maps the LinkBench schema onto pglite tables, as the paper's
// patched PostgreSQL does.
type pgGraph struct {
	eng *pglite.Engine
}

const (
	nodeTable = "node"
	linkTable = "link"
)

func newPGGraph(env *sim.Env, p *sim.Proc, st *stack) (*pgGraph, error) {
	cfg := pglite.Config{
		DataFS:        st.dataFS,
		LogFS:         st.logFS,
		WALMode:       st.mode,
		LogFileBytes:  16 << 20,
		HeapFileBytes: 64 << 20,
		// Paper setup: user data fits in memory; size the pool to the
		// whole heap so only the log device sees traffic.
		BufferPoolPages: 16384,
	}
	if st.mode == wal.BA {
		cfg.SSD = st.ssd
		cfg.EIDs = []core.EID{0, 1}
		// XLOG segment = half the BA-buffer, double buffered (IV-B).
		cfg.SegmentBytes = st.ssd.Config().BABufferBytes / 2
	}
	eng, err := pglite.Open(env, p, cfg)
	if err != nil {
		return nil, err
	}
	if err := eng.CreateTable(nodeTable); err != nil {
		return nil, err
	}
	if err := eng.CreateTable(linkTable); err != nil {
		return nil, err
	}
	return &pgGraph{eng: eng}, nil
}

func (g *pgGraph) AddNode(p *sim.Proc, id uint64, data []byte) error {
	tx := g.eng.Begin()
	tx.Upsert(nodeTable, linkbench.NodeKey(id), data)
	return tx.Commit(p)
}

func (g *pgGraph) UpdateNode(p *sim.Proc, id uint64, data []byte) error {
	return g.AddNode(p, id, data)
}

func (g *pgGraph) DeleteNode(p *sim.Proc, id uint64) error {
	tx := g.eng.Begin()
	tx.Delete(nodeTable, linkbench.NodeKey(id))
	return tx.Commit(p)
}

func (g *pgGraph) GetNode(p *sim.Proc, id uint64) ([]byte, bool, error) {
	return g.eng.Begin().Get(p, nodeTable, linkbench.NodeKey(id))
}

func (g *pgGraph) AddLink(p *sim.Proc, id1, id2 uint64, lt uint32, data []byte) error {
	tx := g.eng.Begin()
	tx.Upsert(linkTable, linkbench.LinkKey(id1, lt, id2), data)
	return tx.Commit(p)
}

func (g *pgGraph) DeleteLink(p *sim.Proc, id1, id2 uint64, lt uint32) error {
	tx := g.eng.Begin()
	tx.Delete(linkTable, linkbench.LinkKey(id1, lt, id2))
	return tx.Commit(p)
}

func (g *pgGraph) GetLink(p *sim.Proc, id1, id2 uint64, lt uint32) ([]byte, bool, error) {
	return g.eng.Begin().Get(p, linkTable, linkbench.LinkKey(id1, lt, id2))
}

func (g *pgGraph) GetLinkList(p *sim.Proc, id1 uint64, lt uint32, limit int) (int, error) {
	pfx := linkbench.LinkPrefix(id1, lt)
	n := 0
	err := g.eng.Begin().ScanFunc(p, linkTable, pfx, limit, func(k, _ []byte) bool {
		if bytes.HasPrefix(k, pfx) {
			n++
		}
		return true
	})
	if err != nil {
		return 0, err
	}
	return n, nil
}

func (g *pgGraph) CountLinks(p *sim.Proc, id1 uint64, lt uint32) (int, error) {
	return g.GetLinkList(p, id1, lt, 1000)
}

// ---- lsm <-> ycsb ----

type lsmKV struct{ db *lsm.DB }

func newLSMKV(env *sim.Env, p *sim.Proc, st *stack) (*lsmKV, error) {
	cfg := lsm.Config{
		DataFS:        st.dataFS,
		LogFS:         st.logFS,
		WALMode:       st.mode,
		MemtableBytes: 1 << 20,
		// Host CPU per operation, calibrated to RocksDB-class engines
		// (skiplist insert, MemTable lookup, encoding) so the commit
		// path's share of an operation matches the paper's Fig 9.
		ReadCPU:  11 * sim.Microsecond,
		WriteCPU: 11 * sim.Microsecond,
	}
	if st.mode == wal.BA {
		cfg.SSD = st.ssd
		cfg.EIDs = []core.EID{0, 1, 2, 3}
		// Each log file = a quarter of the BA-buffer (IV-B).
		cfg.WALBytes = st.ssd.Config().BABufferBytes / 4
	} else {
		cfg.WALBytes = 2 << 20
	}
	db, err := lsm.Open(env, p, cfg)
	if err != nil {
		return nil, err
	}
	return &lsmKV{db: db}, nil
}

func (k *lsmKV) Read(p *sim.Proc, key []byte) error {
	_, _, err := k.db.Get(p, key)
	return err
}

func (k *lsmKV) Update(p *sim.Proc, key, value []byte) error {
	return k.db.Put(p, key, value)
}

// ---- kvaof <-> ycsb ----

type aofKV struct{ s *kvaof.Store }

func newAOFKV(env *sim.Env, p *sim.Proc, st *stack) (*aofKV, error) {
	cfg := kvaof.Config{
		LogFS:    st.logFS,
		WALMode:  st.mode,
		AOFBytes: 64 << 20,
		// Redis-class command costs (parse, dict op, reply) so the AOF
		// commit share matches the paper's single-threaded profile.
		ReadCPU:  6 * sim.Microsecond,
		WriteCPU: 8 * sim.Microsecond,
	}
	if st.mode == wal.BA {
		cfg.SSD = st.ssd
		// AOF window = the whole BA-buffer, single entry (IV-B).
		cfg.SegmentBytes = st.ssd.Config().BABufferBytes
	}
	s, err := kvaof.Open(env, p, cfg)
	if err != nil {
		return nil, err
	}
	return &aofKV{s: s}, nil
}

func (k *aofKV) Read(p *sim.Proc, key []byte) error {
	k.s.Get(p, key)
	return nil
}

func (k *aofKV) Update(p *sim.Proc, key, value []byte) error {
	return k.s.Set(p, key, value)
}

var errSetupFailed = errors.New("bench: engine setup failed")
