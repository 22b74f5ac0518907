// Package nand models a NAND flash subsystem: channels, dies, blocks
// and pages with realistic timing (tR, tPROG, tERASE, channel transfer)
// and the physical constraints that shape every SSD design —
// erase-before-program, strictly sequential page programming within a
// block, and limited erase endurance.
//
// Pages carry real bytes (sparsely stored: an erased or all-zero page
// holds no host memory), so layers above can verify data integrity end
// to end, and all latency is charged on the sim clock: a die is a
// capacity-1 resource held for the array-operation time, a channel is
// a capacity-1 resource held for the transfer time.
package nand

import (
	"bytes"
	"errors"
	"fmt"
	"sync"

	"twobssd/internal/fault"
	"twobssd/internal/histo"
	"twobssd/internal/obs"
	"twobssd/internal/sim"
)

// PPA is a physical page address: a dense index over every page in the
// flash array. See Config.PPA for the layout.
type PPA uint64

// BlockID is a dense index over every block in the flash array.
type BlockID uint32

// Config describes the geometry and timing of a flash subsystem.
type Config struct {
	Channels       int // independent I/O buses
	DiesPerChannel int // dies sharing one channel
	BlocksPerDie   int
	PagesPerBlock  int
	PageSize       int // bytes

	ReadLatency    sim.Duration // tR: array read into page register
	ProgramLatency sim.Duration // tPROG: page register into array
	EraseLatency   sim.Duration // tERASE: whole block

	ChannelMBps int // channel transfer rate, MB/s

	EnduranceCycles int // erases before a block goes bad (0 = unlimited)
}

// Validate reports a descriptive error for an unusable configuration.
func (c Config) Validate() error {
	switch {
	case c.Channels <= 0:
		return errors.New("nand: Channels must be > 0")
	case c.DiesPerChannel <= 0:
		return errors.New("nand: DiesPerChannel must be > 0")
	case c.BlocksPerDie <= 0:
		return errors.New("nand: BlocksPerDie must be > 0")
	case c.PagesPerBlock <= 0:
		return errors.New("nand: PagesPerBlock must be > 0")
	case c.PageSize <= 0:
		return errors.New("nand: PageSize must be > 0")
	case c.ChannelMBps <= 0:
		return errors.New("nand: ChannelMBps must be > 0")
	case c.ReadLatency < 0 || c.ProgramLatency < 0 || c.EraseLatency < 0:
		return errors.New("nand: latencies must be >= 0")
	}
	return nil
}

// Dies returns the total die count.
func (c Config) Dies() int { return c.Channels * c.DiesPerChannel }

// Blocks returns the total block count.
func (c Config) Blocks() int { return c.Dies() * c.BlocksPerDie }

// Pages returns the total page count.
func (c Config) Pages() int { return c.Blocks() * c.PagesPerBlock }

// CapacityBytes returns the raw capacity.
func (c Config) CapacityBytes() int64 {
	return int64(c.Pages()) * int64(c.PageSize)
}

// TransferTime returns the channel transfer time for n bytes.
func (c Config) TransferTime(n int) sim.Duration {
	if n <= 0 {
		return 0
	}
	// MB/s == bytes/µs: t_ns = n * 1000 / MBps.
	return sim.Duration(int64(n) * 1000 / int64(c.ChannelMBps))
}

// PPAOf composes a physical page address.
func (c Config) PPAOf(die, block, page int) PPA {
	return PPA((int64(die)*int64(c.BlocksPerDie)+int64(block))*int64(c.PagesPerBlock) + int64(page))
}

// Decompose splits a PPA into die, block-within-die and page indices.
func (c Config) Decompose(ppa PPA) (die, block, page int) {
	page = int(uint64(ppa) % uint64(c.PagesPerBlock))
	b := uint64(ppa) / uint64(c.PagesPerBlock)
	block = int(b % uint64(c.BlocksPerDie))
	die = int(b / uint64(c.BlocksPerDie))
	return
}

// BlockOf returns the dense block index containing ppa.
func (c Config) BlockOf(ppa PPA) BlockID {
	return BlockID(uint64(ppa) / uint64(c.PagesPerBlock))
}

// DieOf returns the die index of a PPA.
func (c Config) DieOf(ppa PPA) int {
	die, _, _ := c.Decompose(ppa)
	return die
}

// ChannelOf returns the channel a die is attached to (dies are
// interleaved across channels: die d sits on channel d mod Channels).
func (c Config) ChannelOf(die int) int { return die % c.Channels }

// Error values reported by flash operations.
var (
	ErrBadBlock     = errors.New("nand: block is bad")
	ErrNotErased    = errors.New("nand: program to unerased or out-of-order page")
	ErrOutOfRange   = errors.New("nand: address out of range")
	ErrWornOut      = errors.New("nand: block exceeded endurance")
	ErrPageTooLarge = errors.New("nand: data larger than page")

	// Injected-fault errors (internal/fault). ErrUncorrectable means a
	// read failed ECC even after every retry step — the FTL salvages
	// the data and retires the block. ErrProgramFailed/ErrEraseFailed
	// are grown defects: the op charged full latency but did not take.
	ErrUncorrectable = errors.New("nand: uncorrectable read")
	ErrProgramFailed = errors.New("nand: page program failed")
	ErrEraseFailed   = errors.New("nand: block erase failed")
)

type blockState struct {
	nextPage   int // next programmable page (sequential-program rule)
	eraseCount int
	bad        bool
}

// oobTag is the out-of-band metadata stored next to a page — the
// simulated spare area. The flash layer never interprets the tag; it
// carries whatever the host boundary computed (an integrity CRC in
// this stack) so upper layers can verify pages end to end.
type oobTag struct {
	tag    uint32
	tagged bool
}

// Stats aggregates operation counters for the flash array. The values
// are sourced from the environment's obs registry (metric names
// "nand.*"), so this snapshot and a metrics report can never disagree.
type Stats struct {
	PageReads    uint64
	PagePrograms uint64
	BlockErases  uint64
	BytesRead    uint64
	BytesWritten uint64
}

// Flash is a simulated NAND array bound to a sim.Env.
type Flash struct {
	env      *sim.Env
	cfg      Config
	channels []*sim.Resource
	dies     []*sim.Resource
	blocks   []blockState
	data     map[PPA][]byte // programmed non-zero pages; absent reads as zeroes
	spare    [][]byte       // page buffers retired by EraseBlock, reused by programPage
	oob      map[PPA]oobTag

	o        *obs.Set
	chTrack  []string // precomputed trace track names (no per-op fmt)
	dieTrack []string

	// Fault injection (nil = disabled, the common case). progAt
	// tracks page program times for the retention term of the BER
	// model and exists only when an injector is installed, so the
	// fault-free datapath carries no extra bookkeeping.
	inj    *fault.Injector
	progAt map[PPA]sim.Time

	cReads, cPrograms, cErases *obs.Counter
	cBytesRead, cBytesWritten  *obs.Counter
	hRead, hProgram, hErase    *histo.H
}

// Channel and die names are identical for every Flash in the process,
// so they are formatted once and shared; tracks get the zero-padded
// variant so trace viewers sort them correctly.
var nameTab struct {
	sync.Mutex
	ch, chT, die, dieT []string
}

func nandNames(names, tracks *[]string, prefix string, n int) ([]string, []string) {
	nameTab.Lock()
	defer nameTab.Unlock()
	for len(*names) < n {
		i := len(*names)
		*names = append(*names, fmt.Sprintf("%s%d", prefix, i))
		*tracks = append(*tracks, fmt.Sprintf("%s%02d", prefix, i))
	}
	return (*names)[:n:n], (*tracks)[:n:n]
}

// New creates a flash array. It panics on an invalid configuration
// (construction-time misuse, not a runtime condition).
func New(env *sim.Env, cfg Config) *Flash {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	f := &Flash{
		env:    env,
		cfg:    cfg,
		blocks: make([]blockState, cfg.Blocks()),
		data:   make(map[PPA][]byte),
		oob:    make(map[PPA]oobTag),
		o:      obs.Of(env),
		inj:    fault.Of(env),
	}
	if f.inj != nil {
		f.progAt = make(map[PPA]sim.Time)
	}
	chNames, chTracks := nandNames(&nameTab.ch, &nameTab.chT, "nand.ch", cfg.Channels)
	f.chTrack = chTracks
	for i := 0; i < cfg.Channels; i++ {
		f.channels = append(f.channels, env.NewResource(chNames[i], 1))
	}
	dieNames, dieTracks := nandNames(&nameTab.die, &nameTab.dieT, "nand.die", cfg.Dies())
	f.dieTrack = dieTracks
	for i := 0; i < cfg.Dies(); i++ {
		f.dies = append(f.dies, env.NewResource(dieNames[i], 1))
	}
	reg := f.o.Registry()
	f.cReads = reg.Counter("nand.page_reads")
	f.cPrograms = reg.Counter("nand.page_programs")
	f.cErases = reg.Counter("nand.block_erases")
	f.cBytesRead = reg.Counter("nand.bytes_read")
	f.cBytesWritten = reg.Counter("nand.bytes_written")
	f.hRead = reg.Histo("nand.read_ns")
	f.hProgram = reg.Histo("nand.program_ns")
	f.hErase = reg.Histo("nand.erase_ns")
	reg.GaugeFunc("nand.die_busy_frac", func() float64 { return busyFrac(env, f.dies) })
	reg.GaugeFunc("nand.chan_busy_frac", func() float64 { return busyFrac(env, f.channels) })
	return f
}

// busyFrac is the mean fraction of elapsed virtual time the given
// resources were held — die/channel occupancy for the metrics report.
func busyFrac(env *sim.Env, rs []*sim.Resource) float64 {
	if env.Now() == 0 || len(rs) == 0 {
		return 0
	}
	var busy sim.Duration
	for _, r := range rs {
		busy += r.Busy()
	}
	return float64(busy) / (float64(env.Now()) * float64(len(rs)))
}

// Config returns the geometry/timing configuration.
func (f *Flash) Config() Config { return f.cfg }

// Stats returns a copy of the operation counters.
func (f *Flash) Stats() Stats {
	return Stats{
		PageReads:    f.cReads.Value(),
		PagePrograms: f.cPrograms.Value(),
		BlockErases:  f.cErases.Value(),
		BytesRead:    f.cBytesRead.Value(),
		BytesWritten: f.cBytesWritten.Value(),
	}
}

func (f *Flash) checkPPA(ppa PPA) error {
	if uint64(ppa) >= uint64(f.cfg.Pages()) {
		return ErrOutOfRange
	}
	return nil
}

// ReadPage performs an array read of one page and transfers it over the
// die's channel. The returned slice is a copy; never-written pages read
// back as zeroes (an erased page). With a fault injector installed the
// read may take stepped ECC retry latency or fail with
// ErrUncorrectable (wear- and retention-driven BER model).
func (f *Flash) ReadPage(p *sim.Proc, ppa PPA) ([]byte, error) {
	out, _, _, _, err := f.ReadPageTagged(p, ppa)
	return out, err
}

// ReadPageTagged is ReadPage plus the page's out-of-band tag (tagged
// reports whether one was ever programmed) and the number of ECC
// read-retry steps the read needed. retries > 0 means the page holds
// latent-but-correctable errors — the signal the background scrubber
// acts on before wear or retention pushes the page past the ECC budget.
func (f *Flash) ReadPageTagged(p *sim.Proc, ppa PPA) (data []byte, tag uint32, tagged bool, retries int, err error) {
	out := make([]byte, f.cfg.PageSize)
	tag, tagged, retries, err = f.ReadPageTaggedInto(p, ppa, out)
	if err != nil {
		return nil, 0, false, retries, err
	}
	return out, tag, tagged, retries, nil
}

// ReadPageTaggedInto is ReadPageTagged reading into a caller-provided
// buffer of at least PageSize bytes, so hot read paths can recycle one
// destination instead of allocating a page per read.
func (f *Flash) ReadPageTaggedInto(p *sim.Proc, ppa PPA, dst []byte) (tag uint32, tagged bool, retries int, err error) {
	tag, tagged, err = f.readTimedInto(p, ppa, dst)
	if err != nil {
		return 0, false, 0, err
	}
	if f.inj != nil {
		blk := f.cfg.BlockOf(ppa)
		var age sim.Duration
		if t, ok := f.progAt[ppa]; ok {
			age = sim.Duration(f.env.Now() - t)
		}
		rd := f.inj.ReadFault(f.cfg.PageSize, f.blocks[blk].eraseCount, age)
		if rd.Retries > 0 {
			p.Sleep(rd.Extra)
			retries = rd.Retries
		}
		if rd.Uncorrectable {
			return 0, false, retries, fmt.Errorf("%w: ppa %d", ErrUncorrectable, uint64(ppa))
		}
	}
	return tag, tagged, retries, nil
}

// SalvageRead is the FTL's last-resort read of an uncorrectable page:
// full array/channel timing, no fault injection. The model keeps page
// bytes intact, so salvage always yields the data — the realism is in
// the latency already paid on retries and in the block retirement that
// follows.
func (f *Flash) SalvageRead(p *sim.Proc, ppa PPA) ([]byte, error) {
	data, _, _, err := f.readTimed(p, ppa)
	return data, err
}

// SalvageReadTagged is SalvageRead plus the page's out-of-band tag, so
// relocation paths can carry the integrity tag along with rescued data.
func (f *Flash) SalvageReadTagged(p *sim.Proc, ppa PPA) (data []byte, tag uint32, tagged bool, err error) {
	return f.readTimed(p, ppa)
}

func (f *Flash) readTimed(p *sim.Proc, ppa PPA) ([]byte, uint32, bool, error) {
	out := make([]byte, f.cfg.PageSize)
	tag, tagged, err := f.readTimedInto(p, ppa, out)
	if err != nil {
		return nil, 0, false, err
	}
	return out, tag, tagged, nil
}

func (f *Flash) readTimedInto(p *sim.Proc, ppa PPA, dst []byte) (uint32, bool, error) {
	if err := f.checkPPA(ppa); err != nil {
		return 0, false, err
	}
	die := f.cfg.DieOf(ppa)
	ch := f.cfg.ChannelOf(die)
	start := f.env.Now()
	tr := f.o.Tracer()
	// Spans cover only the hold (the die/channel occupancy); the
	// histogram covers the whole op including queueing.
	f.dies[die].Acquire(p)
	sp := tr.Begin(f.dieTrack[die], "nand", "tR")
	p.Sleep(f.cfg.ReadLatency)
	sp.End()
	f.dies[die].Release()
	f.channels[ch].Acquire(p)
	sp = tr.Begin(f.chTrack[ch], "nand", "xfer_out")
	p.Sleep(f.cfg.TransferTime(f.cfg.PageSize))
	sp.End()
	f.channels[ch].Release()
	f.cReads.Inc()
	f.cBytesRead.Add(uint64(f.cfg.PageSize))
	f.hRead.Observe(sim.Duration(f.env.Now() - start))
	dst = dst[:f.cfg.PageSize]
	n := copy(dst, f.data[ppa])
	clear(dst[n:]) // unprogrammed and all-zero pages read as zeroes
	t := f.oob[ppa]
	return t.tag, t.tagged, nil
}

// ProgramPage transfers data over the channel and programs one page.
// Data shorter than a page is zero-padded. Programming must follow the
// block's sequential-page order on an erased block.
func (f *Flash) ProgramPage(p *sim.Proc, ppa PPA, data []byte) error {
	return f.programPage(p, ppa, data, oobTag{})
}

// ProgramPageTagged is ProgramPage plus an out-of-band tag programmed
// into the page's spare area alongside the data. The flash layer never
// interprets the tag; ReadPageTagged hands it back on every read.
func (f *Flash) ProgramPageTagged(p *sim.Proc, ppa PPA, data []byte, tag uint32) error {
	return f.programPage(p, ppa, data, oobTag{tag: tag, tagged: true})
}

func (f *Flash) programPage(p *sim.Proc, ppa PPA, data []byte, t oobTag) error {
	if err := f.checkPPA(ppa); err != nil {
		return err
	}
	if len(data) > f.cfg.PageSize {
		return ErrPageTooLarge
	}
	die, _, page := f.cfg.Decompose(ppa)
	blk := &f.blocks[f.cfg.BlockOf(ppa)]
	if blk.bad {
		return ErrBadBlock
	}
	if page != blk.nextPage {
		return fmt.Errorf("%w: block %d page %d (next programmable %d)",
			ErrNotErased, f.cfg.BlockOf(ppa), page, blk.nextPage)
	}
	ch := f.cfg.ChannelOf(die)
	start := f.env.Now()
	tr := f.o.Tracer()
	f.channels[ch].Acquire(p)
	sp := tr.Begin(f.chTrack[ch], "nand", "xfer_in")
	p.Sleep(f.cfg.TransferTime(f.cfg.PageSize))
	sp.End()
	f.channels[ch].Release()
	f.dies[die].Acquire(p)
	sp = tr.Begin(f.dieTrack[die], "nand", "tPROG")
	p.Sleep(f.cfg.ProgramLatency)
	sp.End()
	f.dies[die].Release()
	if f.inj != nil && f.inj.ProgramFault() {
		// Grown defect: full latency charged, page not programmed.
		// The FTL retires the block and retries elsewhere.
		return fmt.Errorf("%w: block %d page %d", ErrProgramFailed, f.cfg.BlockOf(ppa), page)
	}
	blk.nextPage++
	// An all-zero page stays absent from f.data: it reads back as
	// zeroes like an erased one, and costs no host memory. Pages at or
	// past a block's nextPage never have an entry, so none is stale.
	if !allZero(data) {
		stored := f.takePage()
		n := copy(stored, data)
		clear(stored[n:]) // short writes are zero-padded
		f.data[ppa] = stored
	}
	if t.tagged {
		f.oob[ppa] = t
	} else {
		delete(f.oob, ppa)
	}
	f.cPrograms.Inc()
	f.cBytesWritten.Add(uint64(f.cfg.PageSize))
	f.hProgram.Observe(sim.Duration(f.env.Now() - start))
	if f.inj != nil {
		f.progAt[ppa] = f.env.Now()
		f.inj.Tick(fault.EvNandProgram)
	}
	return nil
}

// takePage returns a page buffer for f.data, reusing one retired by
// EraseBlock when there is one. Its contents are stale.
func (f *Flash) takePage() []byte {
	n := len(f.spare)
	if n == 0 {
		return make([]byte, f.cfg.PageSize)
	}
	pg := f.spare[n-1]
	f.spare[n-1] = nil
	f.spare = f.spare[:n-1]
	return pg
}

// zeroChunk is the all-zero reference allZero compares against.
var zeroChunk [4096]byte

// allZero reports whether every byte of b is zero, at memequal speed.
func allZero(b []byte) bool {
	for len(b) > 0 {
		n := min(len(b), len(zeroChunk))
		if !bytes.Equal(b[:n], zeroChunk[:n]) {
			return false
		}
		b = b[n:]
	}
	return true
}

// EraseBlock erases a whole block, making its pages programmable again.
// When the block's erase count passes the configured endurance the
// block is retired and ErrWornOut is returned.
func (f *Flash) EraseBlock(p *sim.Proc, blk BlockID) error {
	if uint64(blk) >= uint64(f.cfg.Blocks()) {
		return ErrOutOfRange
	}
	bs := &f.blocks[blk]
	if bs.bad {
		return ErrBadBlock
	}
	die := int(uint64(blk) / uint64(f.cfg.BlocksPerDie))
	start := f.env.Now()
	f.dies[die].Acquire(p)
	sp := f.o.Tracer().Begin(f.dieTrack[die], "nand", "tERASE")
	p.Sleep(f.cfg.EraseLatency)
	sp.End()
	f.dies[die].Release()
	if f.inj != nil && f.inj.EraseFault() {
		// Erase failure is a grown defect: the block is retired on
		// the spot, its contents and program state untouched.
		bs.bad = true
		return fmt.Errorf("%w: block %d", ErrEraseFailed, blk)
	}
	bs.eraseCount++
	bs.nextPage = 0
	f.cErases.Inc()
	f.hErase.Observe(sim.Duration(f.env.Now() - start))
	base := PPA(uint64(blk) * uint64(f.cfg.PagesPerBlock))
	for i := 0; i < f.cfg.PagesPerBlock; i++ {
		if pg, ok := f.data[base+PPA(i)]; ok {
			f.spare = append(f.spare, pg)
			delete(f.data, base+PPA(i))
		}
		delete(f.oob, base+PPA(i))
		if f.inj != nil {
			delete(f.progAt, base+PPA(i))
		}
	}
	if f.cfg.EnduranceCycles > 0 && bs.eraseCount >= f.cfg.EnduranceCycles {
		bs.bad = true
		return ErrWornOut
	}
	return nil
}

// MarkBad retires a block — the FTL calls this after uncorrectable
// reads or program failures (and tests use it for direct injection).
func (f *Flash) MarkBad(blk BlockID) {
	f.blocks[blk].bad = true
}

// IsBad reports whether a block has been retired.
func (f *Flash) IsBad(blk BlockID) bool { return f.blocks[blk].bad }

// EraseCount reports a block's erase cycles.
func (f *Flash) EraseCount(blk BlockID) int { return f.blocks[blk].eraseCount }

// NextPage reports the next programmable page index of a block.
func (f *Flash) NextPage(blk BlockID) int { return f.blocks[blk].nextPage }

// PeekPage returns the stored contents of a page without timing or
// counters — a debugging/verification hook for tests and recovery
// assertions, not a datapath.
func (f *Flash) PeekPage(ppa PPA) []byte {
	out := make([]byte, f.cfg.PageSize)
	copy(out, f.data[ppa])
	return out
}

// PeekTag returns a page's out-of-band tag and whether one was
// programmed — the verification-hook counterpart of PeekPage.
func (f *Flash) PeekTag(ppa PPA) (uint32, bool) {
	t := f.oob[ppa]
	return t.tag, t.tagged
}

// CorruptPage flips the low bit of the first n stored bytes of a page —
// the silent-corruption hook the integrity tests use to prove the CRC
// tags actually detect a page a layer mangled in flight. The BER fault
// model perturbs *latency* and verdicts while keeping bytes intact;
// this hook is how tests make bytes lie. Returns false when the page
// was never programmed (nothing to corrupt). A programmed all-zero page
// gets its stored bytes only here, when n asks for bits to flip.
func (f *Flash) CorruptPage(ppa PPA, n int) bool {
	if f.checkPPA(ppa) != nil {
		return false
	}
	_, _, page := f.cfg.Decompose(ppa)
	if page >= f.blocks[f.cfg.BlockOf(ppa)].nextPage {
		return false
	}
	if n <= 0 {
		return true
	}
	data, ok := f.data[ppa]
	if !ok {
		data = f.takePage()
		clear(data)
		f.data[ppa] = data
	}
	if n > len(data) {
		n = len(data)
	}
	for i := 0; i < n; i++ {
		data[i] ^= 1
	}
	return true
}
