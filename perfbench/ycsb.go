package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"twobssd/internal/bench"
	"twobssd/internal/core"
	"twobssd/internal/device"
	"twobssd/internal/kvaof"
	"twobssd/internal/lsm"
	"twobssd/internal/obs"
	"twobssd/internal/sim"
	"twobssd/internal/vfs"
	"twobssd/internal/wal"
	"twobssd/internal/ycsb"
)

// ycsbParams sizes a ycsb-* workload. Both commit paths use the same
// values; only the log's commit protocol differs.
type ycsbParams struct {
	Engine     string  `json:"engine"`   // "kvaof" (Redis-like AOF store) or "lsm" (RocksDB-like)
	Mode       string  `json:"wal_mode"` // "ba" (byte path) or "block" (write + flush)
	Records    int64   `json:"keyspace"`
	ValueBytes int     `json:"value_bytes"`
	Clients    int     `json:"clients"`
	Ops        int     `json:"measured_ops"`
	Theta      float64 `json:"zipf_theta"`
	ReadFrac   float64 `json:"read_fraction"`
	LogBytes   int64   `json:"log_file_bytes"`
	// lsm only: memtable and block cache (256 x 4 KB blocks = 1 MB).
	Memtable   int `json:"memtable_bytes,omitempty"`
	BlockCache int `json:"block_cache_blocks,omitempty"`
}

func ycsbDefaults(engine, mode string) ycsbParams {
	p := ycsbParams{
		Engine:     engine,
		Mode:       mode,
		Records:    16384,
		ValueBytes: 256,
		Clients:    8,
		Ops:        128000,
		Theta:      0.99,
		ReadFrac:   0.5,
		LogBytes:   64 << 20,
	}
	if engine == "lsm" {
		// 16 MB of values: 16x the memtable and the block cache.
		p.Records, p.Memtable, p.BlockCache = 65536, 1<<20, 256
	}
	return p
}

// kvStore is the engine under test, as the clients see it.
type kvStore interface {
	get(p *sim.Proc, key []byte) ([]byte, bool, error)
	put(p *sim.Proc, key, val []byte) error
}

type aofStore struct{ s *kvaof.Store }

func (a aofStore) get(p *sim.Proc, key []byte) ([]byte, bool, error) {
	v, ok := a.s.Get(p, key)
	return v, ok, nil
}
func (a aofStore) put(p *sim.Proc, key, val []byte) error { return a.s.Set(p, key, val) }

type lsmStore struct{ db *lsm.DB }

func (l lsmStore) get(p *sim.Proc, key []byte) ([]byte, bool, error) { return l.db.Get(p, key) }
func (l lsmStore) put(p *sim.Proc, key, val []byte) error            { return l.db.Put(p, key, val) }

// putRec is one acknowledged update. ord0/ord1 are its call and return
// positions in the global call order; the simulation runs one process
// at a time, so that order is a total happened-before order.
type putRec struct {
	key        int32
	ord0, ord1 uint64
}

// ycsbRun is one round's live state.
type ycsbRun struct {
	p    ycsbParams
	seed int64
	env  *sim.Env
	ssd  *core.TwoBSSD
	log  *vfs.FS
	kv   kvStore
	open func(p *sim.Proc) (kvStore, error)
	sp   *spans

	keys   [][]byte
	keyIdx map[string]int32

	ord    uint64
	puts   []putRec // load updates first, then measured ones; index = update id
	loaded int      // updates written by the load
	lat    []int64  // every measured op, virtual ns
	putLat []int64
	getLat []int64
}

// valueFor renders the unique value of update id to key: the first
// 16 bytes name the update and the rest is a pattern derived from it,
// so a recovered value identifies exactly which update wrote it.
func valueFor(buf []byte, key int32, id uint64) {
	binary.LittleEndian.PutUint32(buf[0:], uint32(key))
	binary.LittleEndian.PutUint64(buf[4:], id)
	binary.LittleEndian.PutUint32(buf[12:], 0x2B55D00D)
	x := id*0x9E3779B97F4A7C15 + uint64(key) + 1
	for i := 16; i < len(buf); i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		buf[i] = byte(x)
	}
}

func newYCSBRun(p ycsbParams, seed int64, sp *spans) *ycsbRun {
	r := &ycsbRun{p: p, seed: seed, env: sim.NewEnv(), sp: sp}
	g := ycsb.NewGenerator(ycsb.Config{Records: p.Records, PayloadBytes: p.ValueBytes, Theta: p.Theta, Seed: seed})
	r.keys = make([][]byte, p.Records)
	r.keyIdx = make(map[string]int32, p.Records)
	for i := int64(0); i < p.Records; i++ {
		k := append([]byte(nil), g.Key(i)...)
		r.keys[i] = k
		r.keyIdx[string(k)] = int32(i)
	}
	return r
}

// build assembles the stack: the log lives on a full-spec 2B-SSD and
// commits over its byte path or its block interface.
func (r *ycsbRun) build() {
	e := r.env
	r.ssd = bench.SSD2B(e)
	r.log = vfs.New(r.ssd.Device())
	mode := wal.Sync
	if r.p.Mode == "ba" {
		mode = wal.BA
	}
	switch r.p.Engine {
	case "kvaof":
		cfg := kvaof.Config{
			LogFS:    r.log,
			WALMode:  mode,
			AOFBytes: r.p.LogBytes,
			// Redis-class command costs, the Fig 9 calibration.
			ReadCPU:  6 * sim.Microsecond,
			WriteCPU: 8 * sim.Microsecond,
		}
		if mode == wal.BA {
			cfg.SSD = r.ssd
			cfg.SegmentBytes = r.ssd.Config().BABufferBytes // AOF window = whole BA-buffer
		}
		r.open = func(p *sim.Proc) (kvStore, error) {
			s, err := kvaof.Open(e, p, cfg)
			return aofStore{s}, err
		}
	case "lsm":
		dataProf := device.ULLSSD()
		dataProf.Name = "data-" + dataProf.Name
		cfg := lsm.Config{
			DataFS:        vfs.New(device.New(e, dataProf)),
			LogFS:         r.log,
			WALMode:       mode,
			MemtableBytes: r.p.Memtable,
			WALBytes:      2 << 20,
			BlockCache:    r.p.BlockCache,
			// RocksDB-class host CPU per op, the Fig 9 calibration.
			ReadCPU:  11 * sim.Microsecond,
			WriteCPU: 11 * sim.Microsecond,
		}
		if mode == wal.BA {
			cfg.SSD = r.ssd
			cfg.EIDs = []core.EID{0, 1, 2, 3}
			cfg.WALBytes = r.ssd.Config().BABufferBytes / 4
		}
		r.open = func(p *sim.Proc) (kvStore, error) {
			db, err := lsm.Open(e, p, cfg)
			return lsmStore{db}, err
		}
	}
}

// put performs and records one update.
func (r *ycsbRun) put(p *sim.Proc, val []byte, k int32, op uint64) error {
	id := uint64(len(r.puts))
	r.ord++
	r.puts = append(r.puts, putRec{key: k, ord0: r.ord})
	valueFor(val, k, id)
	sp := r.sp.begin("engine.put", r.env.Now(), op)
	err := r.kv.put(p, r.keys[k], val)
	sp.end(r.env.Now())
	r.ord++
	r.puts[id].ord1 = r.ord
	return err
}

// load opens the engine and writes every key once.
func (r *ycsbRun) load() error {
	var err error
	r.puts = make([]putRec, 0, int(r.p.Records)+r.p.Ops)
	r.env.Go("load", func(p *sim.Proc) {
		sp := r.sp.begin("engine.open", r.env.Now(), 0)
		r.kv, err = r.open(p)
		sp.end(r.env.Now())
		if err != nil {
			err = fmt.Errorf("open: %w", err)
			return
		}
		val := make([]byte, r.p.ValueBytes)
		for i := int64(0); i < r.p.Records; i++ {
			if err = r.put(p, val, int32(i), 0); err != nil {
				err = fmt.Errorf("load put: %w", err)
				return
			}
		}
	})
	r.env.Run()
	r.loaded = len(r.puts)
	return err
}

// measure runs the closed-loop YCSB-A clients. Each op is timed in
// virtual time around the engine call. The client that finishes last
// calls done in the same virtual instant as its last acknowledgement,
// before any background work can run.
func (r *ycsbRun) measure(done func(p *sim.Proc)) (sim.Duration, error) {
	per := r.p.Ops / r.p.Clients
	n := per * r.p.Clients
	r.lat = make([]int64, 0, n)
	r.putLat = make([]int64, 0, n)
	r.getLat = make([]int64, 0, n)
	var firstErr error
	start := r.env.Now()
	var last sim.Time
	running := r.p.Clients
	for c := 0; c < r.p.Clients; c++ {
		gen := ycsb.NewGenerator(ycsb.Config{
			Records: r.p.Records, ReadFraction: r.p.ReadFrac, PayloadBytes: r.p.ValueBytes,
			Theta: r.p.Theta, Seed: r.seed + int64(c+1)*7919,
		})
		c := c
		r.env.Go(fmt.Sprintf("client%d", c), func(p *sim.Proc) {
			defer func() {
				if running--; running == 0 && firstErr == nil {
					last = r.env.Now()
					done(p)
				}
			}()
			val := make([]byte, r.p.ValueBytes)
			for i := 0; i < per && firstErr == nil; i++ {
				op := gen.Next()
				k := r.keyIdx[string(op.Key)]
				opID := uint64(c)<<32 | uint64(i)
				t0 := r.env.Now()
				if op.Kind == ycsb.OpRead {
					sp := r.sp.begin("engine.get", t0, opID)
					_, _, err := r.kv.get(p, r.keys[k])
					sp.end(r.env.Now())
					if err != nil {
						firstErr = fmt.Errorf("get: %w", err)
						return
					}
					d := int64(r.env.Now() - t0)
					r.lat = append(r.lat, d)
					r.getLat = append(r.getLat, d)
					continue
				}
				if err := r.put(p, val, k, opID); err != nil {
					firstErr = fmt.Errorf("put: %w", err)
					return
				}
				d := int64(r.env.Now() - t0)
				r.lat = append(r.lat, d)
				r.putLat = append(r.putLat, d)
			}
		})
	}
	r.env.Run()
	return sim.Duration(last - start), firstErr
}

// crashCheck cuts power, powers the device back on, reopens the store
// from its log and checks every key.
func (r *ycsbRun) crashCheck(p *sim.Proc) (dump, powerOn, reopen sim.Duration, err error) {
	t0 := r.env.Now()
	sp := r.sp.begin("core.power_loss", t0, 0)
	_, err = r.ssd.PowerLoss(p)
	sp.end(r.env.Now())
	if err != nil {
		return 0, 0, 0, fmt.Errorf("power loss: %w", err)
	}
	t1 := r.env.Now()
	sp = r.sp.begin("core.power_on", t1, 0)
	err = r.ssd.PowerOn(p)
	sp.end(r.env.Now())
	if err != nil {
		return 0, 0, 0, fmt.Errorf("power on: %w", err)
	}
	t2 := r.env.Now()
	sp = r.sp.begin("engine.open", t2, 0)
	kv, err := r.open(p)
	sp.end(r.env.Now())
	if err != nil {
		return 0, 0, 0, fmt.Errorf("recover open: %w", err)
	}
	t3 := r.env.Now()
	return sim.Duration(t1 - t0), sim.Duration(t2 - t1), sim.Duration(t3 - t2), r.verify(p, kv)
}

// The two ways the durability check fails.
var (
	errLost    = errors.New("acknowledged update lost")
	errPhantom = errors.New("never-written value recovered")
)

// verify reads every key back. A key must hold the value of an update
// to it that no other update of it follows in real time (one that
// started after the first was acknowledged); anything else is a lost
// update, and a value no update wrote is a phantom.
func (r *ycsbRun) verify(p *sim.Proc, kv kvStore) error {
	latest := make([]uint64, r.p.Records) // latest call position per key
	for i := range r.puts {
		u := &r.puts[i]
		if u.ord0 > latest[u.key] {
			latest[u.key] = u.ord0
		}
	}
	want := make([]byte, r.p.ValueBytes)
	for k := int32(0); k < int32(r.p.Records); k++ {
		v, ok, err := kv.get(p, r.keys[k])
		if err != nil {
			return fmt.Errorf("recover read: %w", err)
		}
		if !ok {
			return fmt.Errorf("%w: key %d missing", errLost, k)
		}
		if len(v) != r.p.ValueBytes {
			return fmt.Errorf("%w: key %d holds %d bytes", errPhantom, k, len(v))
		}
		id := binary.LittleEndian.Uint64(v[4:])
		if id >= uint64(len(r.puts)) || r.puts[id].key != k {
			return fmt.Errorf("%w: key %d holds update %d", errPhantom, k, id)
		}
		valueFor(want, k, id)
		if string(want) != string(v) {
			return fmt.Errorf("%w: key %d update %d content", errPhantom, k, id)
		}
		if latest[k] > r.puts[id].ord1 {
			return fmt.Errorf("%w: key %d holds update %d, a later one was acknowledged", errLost, k, id)
		}
	}
	return nil
}

// ycsbRound runs one full round: build, load, measure, crash, recover.
func ycsbRound(p ycsbParams, seed int64, sp *spans) (*roundResult, error) {
	res := newRoundResult()
	t0 := time.Now()
	r := newYCSBRun(p, seed, sp)
	defer r.env.Shutdown()
	ph := sp.beginPhase("build", 0)
	r.build()
	ph.end(r.env.Now())
	ph = sp.beginPhase("load", r.env.Now())
	if err := r.load(); err != nil {
		return nil, err
	}
	ph.end(r.env.Now())
	reg := obs.Of(r.env).Registry()
	m := markRegistry(reg)
	ev0 := r.env.Events()
	res.setup = time.Since(t0)

	// The measured phase ends when the last op is acknowledged; the
	// power is cut in that same instant.
	var d *phase
	var end time.Time
	var dump, powerOn, reopen sim.Duration
	var crashErr error
	ph = sp.beginPhase("measure", r.env.Now())
	m0 := mallocs()
	t1 := time.Now()
	elapsed, err := r.measure(func(p *sim.Proc) {
		end = time.Now()
		res.mallocs = mallocs() - m0
		res.events = r.env.Events() - ev0
		d = newPhase()
		d.add(reg, m)
		ph.end(r.env.Now())
		ph = sp.beginPhase("crash-recover", r.env.Now())
		dump, powerOn, reopen, crashErr = r.crashCheck(p)
		ph.end(r.env.Now())
	})
	if err != nil {
		return nil, err
	}
	if crashErr != nil {
		return nil, checkFail("ycsb-recovery", crashErr)
	}
	res.measure = end.Sub(t1)
	res.ops = len(r.lat)
	L := res.layers
	ops := float64(res.ops)
	switch db := r.kv.(type) {
	case lsmStore:
		// The LSM must have cycled its background work.
		st := db.db.Stats()
		if st.Compactions < 3 {
			return nil, checkFail("lsm-compactions", fmt.Errorf("%d compactions, want >= 3", st.Compactions))
		}
		L["lsm.compactions"] = float64(st.Compactions)
	case aofStore:
		// Both sides must write at least two BA-buffer windows of log,
		// so the byte path recycles its window in the measured phase.
		if min := 2 * float64(r.ssd.Config().BABufferBytes); d.c("wal.bytes_appended") < min {
			return nil, checkFail("log-cycled", fmt.Errorf("%.0f log bytes in the measured phase, want >= %.0f", d.c("wal.bytes_appended"), min))
		}
	}

	userBytes := float64(len(r.puts)-r.loaded) * float64(p.ValueBytes+len(r.keys[0]))
	res.setSampleLatency(r.lat, "")
	res.e2e["modeled_ops_per_s"] = float64(res.ops) / elapsed.Seconds()
	res.samples["modeled_ops_per_s"] = res.ops
	res.e2e["write_amp"] = d.c("nand.bytes_written") / userBytes
	res.e2e["recovery_ms"] = (powerOn + reopen).Seconds() * 1e3

	L["sim.events_per_op"] = float64(res.events) / ops
	deviceLayers(L, d, ops)
	L["engine.put_p50_us"] = quantileUs(r.putLat, 0.5)
	L["engine.put_p999_us"] = quantileUs(r.putLat, 0.999)
	L["engine.get_p50_us"] = quantileUs(r.getLat, 0.5)
	L["engine.get_p999_us"] = quantileUs(r.getLat, 0.999)
	L["engine.open_ms"] = reopen.Seconds() * 1e3
	L["core.dump_ms"] = dump.Seconds() * 1e3
	L["core.poweron_ms"] = powerOn.Seconds() * 1e3
	return res, nil
}
