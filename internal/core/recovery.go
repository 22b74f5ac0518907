package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"twobssd/internal/ftl"
	"twobssd/internal/integrity"
	"twobssd/internal/nand"
	"twobssd/internal/sim"
)

// recovery is the recovery manager (paper Section III-A4): it owns the
// reserved die-parallel NAND dump area and, on power loss, saves the
// BA-buffer contents and the mapping table there using the energy
// stored in the back-up capacitors. On power-up it restores both.
type recovery struct {
	s          *TwoBSSD
	dumpBlocks []nand.BlockID // one reserved block per die (die order)
	armed      bool           // dump area erased and ready
	dumpValid  bool           // a valid dump image exists on NAND
}

const dumpMagic = 0x2B55D001

func newRecovery(s *TwoBSSD) *recovery {
	fc := s.dev.Flash().Config()
	per := s.dev.FTL().Config().ReservedPerDie
	r := &recovery{s: s, armed: true}
	for d := 0; d < fc.Dies(); d++ {
		for k := 0; k < per; k++ {
			blk := nand.BlockID(d*fc.BlocksPerDie + fc.BlocksPerDie - 1 - k)
			r.dumpBlocks = append(r.dumpBlocks, blk)
		}
	}
	need := s.BufferPages() + 1
	if got := len(r.dumpBlocks) * fc.PagesPerBlock; got < need {
		panic(fmt.Sprintf("2bssd: dump area %d pages < %d needed", got, need))
	}
	return r
}

// DumpReport describes one power-loss event.
type DumpReport struct {
	LostWCBursts  int          // host-side write-combining bursts lost
	DumpDuration  sim.Duration // firmware dump time on capacitor power
	EnergyUsedJ   float64
	EnergyBudgetJ float64
	Persisted     bool // BA-buffer + table image reached NAND
}

// encodeMeta serializes the mapping table into one page image.
func (r *recovery) encodeMeta() []byte {
	ps := r.s.PageSize()
	buf := make([]byte, ps)
	binary.LittleEndian.PutUint32(buf[0:], dumpMagic)
	binary.LittleEndian.PutUint32(buf[4:], uint32(r.s.BufferPages()))
	n := 0
	for _, e := range r.s.table {
		if e != nil {
			n++
		}
	}
	binary.LittleEndian.PutUint32(buf[8:], uint32(n))
	off := 16
	for _, e := range r.s.table {
		if e == nil {
			continue
		}
		binary.LittleEndian.PutUint32(buf[off:], uint32(e.ID))
		binary.LittleEndian.PutUint64(buf[off+4:], uint64(e.Offset))
		binary.LittleEndian.PutUint64(buf[off+12:], uint64(e.LBA))
		binary.LittleEndian.PutUint32(buf[off+20:], uint32(e.Pages))
		off += 24
	}
	binary.LittleEndian.PutUint32(buf[12:], crc32.ChecksumIEEE(buf[16:off]))
	return buf
}

// decodeMeta rebuilds the mapping table from a dump metadata page.
func (r *recovery) decodeMeta(buf []byte) ([]*Entry, error) {
	if binary.LittleEndian.Uint32(buf[0:]) != dumpMagic {
		return nil, errors.New("2bssd: dump metadata magic mismatch")
	}
	n := int(binary.LittleEndian.Uint32(buf[8:]))
	want := binary.LittleEndian.Uint32(buf[12:])
	if got := crc32.ChecksumIEEE(buf[16 : 16+24*n]); got != want {
		return nil, errors.New("2bssd: dump metadata CRC mismatch")
	}
	entries := make([]*Entry, 0, n)
	off := 16
	for i := 0; i < n; i++ {
		entries = append(entries, &Entry{
			ID:     EID(binary.LittleEndian.Uint32(buf[off:])),
			Offset: int(binary.LittleEndian.Uint64(buf[off+4:])),
			LBA:    ftl.LBA(binary.LittleEndian.Uint64(buf[off+12:])),
			Pages:  int(binary.LittleEndian.Uint32(buf[off+20:])),
		})
		off += 24
	}
	return entries, nil
}

// pagesPerBlock returns how many BA-buffer pages each dump block holds.
func (r *recovery) pagesPerBlock() int {
	n := r.s.BufferPages()
	blocks := len(r.dumpBlocks)
	return (n + blocks - 1) / blocks
}

// PowerLoss simulates an abrupt power failure. The host's un-synced
// write-combining bursts are lost; the base device's write buffer and
// the BA-buffer + mapping table are saved to NAND on capacitor energy.
// If the stored energy cannot cover the dump, the BA-buffer image is
// NOT persisted and the call reports ErrInsufficient — committed data
// in the BA-buffer would be lost, which the recovery tests assert
// never happens with the shipped configuration.
func (s *TwoBSSD) PowerLoss(p *sim.Proc) (DumpReport, error) {
	if err := s.checkPower(); err != nil {
		return DumpReport{}, err
	}
	rep := DumpReport{EnergyBudgetJ: s.cfg.CapacitorEnergyJ()}
	rep.LostWCBursts = s.win.DropPending()

	start := s.env.Now()
	// 1. The base device's protection subsystem drains its own write
	//    buffer to NAND (both comparison SSDs already have this;
	//    Section III-A4).
	if err := s.dev.Drain(p); err != nil {
		return rep, err
	}
	// 2. Firmware dumps the BA-buffer and mapping table to the
	//    pre-erased reserved area, die-parallel.
	if !s.rec.armed {
		return rep, errors.New("2bssd: dump area not armed")
	}
	derr := s.rec.dumpImage(p)
	rep.DumpDuration = sim.Duration(s.env.Now() - start)
	rep.EnergyUsedJ = s.cfg.DumpPowerW * rep.DumpDuration.Seconds()
	s.gDumpEnergy.Set(rep.EnergyUsedJ)

	s.powered = false
	s.rec.armed = false
	if derr != nil {
		// The dump died mid-flight (injected capacitor cut or a program
		// failure in the reserved area): the image on NAND is torn and
		// must never be restored as if it were complete.
		s.rec.dumpValid = false
		s.scrambleVolatile()
		return rep, fmt.Errorf("%w: %v", ErrDumpTorn, derr)
	}
	if rep.EnergyUsedJ > rep.EnergyBudgetJ {
		// The capacitors drained before the dump finished: the image on
		// NAND is torn and unusable.
		s.rec.dumpValid = false
		s.scrambleVolatile()
		return rep, fmt.Errorf("%w: needed %.1f mJ, have %.1f mJ",
			ErrInsufficient, rep.EnergyUsedJ*1e3, rep.EnergyBudgetJ*1e3)
	}
	s.rec.dumpValid = true
	rep.Persisted = true
	s.scrambleVolatile()
	return rep, nil
}

// scrambleVolatile models DRAM content loss at power-off.
func (s *TwoBSSD) scrambleVolatile() {
	fill(s.babuf, 0xDE)
	clear(s.table)
}

// fill sets every byte of b to v: one store, then doubling copies that
// run at memmove speed.
func fill(b []byte, v byte) {
	if len(b) == 0 {
		return
	}
	b[0] = v
	for n := 1; n < len(b); n *= 2 {
		copy(b[n:], b[:n])
	}
}

// dumpImage programs the metadata page and every BA-buffer page into
// the reserved blocks. One firmware worker per dump block programs its
// slice sequentially; blocks sit on distinct dies, so the dump runs
// die-parallel — that is what makes it fast enough for capacitors.
// A non-nil error means the image on NAND is torn: the injected
// capacitor cut fired mid-dump (pagesDumped is shared across workers,
// so the cut lands after an exact global page count), or a program in
// the reserved area failed.
func (r *recovery) dumpImage(p *sim.Proc) error {
	s := r.s
	ps := s.PageSize()
	per := r.pagesPerBlock()
	fc := s.dev.Flash().Config()
	wg := s.env.NewWaitGroup("2bssd.dump")
	nblocks := len(r.dumpBlocks)
	wg.Add(nblocks)
	pagesDumped := 0
	var firstErr error
	fail := func(err error) {
		if firstErr == nil {
			firstErr = err
		}
	}
	dump := func(w *sim.Proc, b int) {
		defer wg.Done()
		blk := r.dumpBlocks[b]
		base := nand.PPA(uint64(blk) * uint64(fc.PagesPerBlock))
		pg := 0
		for i := b * per; i < (b+1)*per && i < s.BufferPages(); i++ {
			if firstErr != nil {
				return
			}
			if s.inj.DumpCut(pagesDumped) {
				fail(errors.New("capacitors cut mid-dump"))
				return
			}
			page := s.babuf[i*ps : (i+1)*ps]
			if err := s.dev.Flash().ProgramPageTagged(w, base+nand.PPA(pg), page, integrity.PageCRC(page)); err != nil {
				fail(fmt.Errorf("dump program: %w", err))
				return
			}
			pagesDumped++
			pg++
		}
		if b == 0 && firstErr == nil {
			if s.inj.DumpCut(pagesDumped) {
				fail(errors.New("capacitors cut before metadata page"))
				return
			}
			meta := r.encodeMeta()
			if err := s.dev.Flash().ProgramPageTagged(w, base+nand.PPA(pg), meta, integrity.PageCRC(meta)); err != nil {
				fail(fmt.Errorf("dump meta program: %w", err))
				return
			}
			pagesDumped++
		}
	}
	for b := 0; b < nblocks; b++ {
		s.env.GoIdx("2bssd.dump", b, dump)
	}
	wg.Wait(p)
	return firstErr
}

// PowerOn restores the device after a power failure: it reads the dump
// image back into the BA-buffer, rebuilds the mapping table (re-gating
// the pinned LBA ranges), and re-arms the dump area by erasing it.
// Without a valid dump image the BA-buffer comes up empty.
func (s *TwoBSSD) PowerOn(p *sim.Proc) error {
	if s.powered {
		return errors.New("2bssd: already powered on")
	}
	s.powered = true
	if s.rec.dumpValid {
		if err := s.rec.restoreImage(p); err != nil {
			return err
		}
		s.rec.dumpValid = false
	} else {
		clear(s.babuf)
	}
	s.rec.rearm(p)
	return nil
}

// restoreImage loads metadata and BA-buffer contents from the dump area.
// Each worker reads its pages into one scratch page of its own and
// copies a page into the BA-buffer only after its integrity check
// passes, so a corrupt dump page never reaches the BA-buffer.
func (r *recovery) restoreImage(p *sim.Proc) error {
	s := r.s
	ps := s.PageSize()
	per := r.pagesPerBlock()
	fc := s.dev.Flash().Config()
	nblocks := len(r.dumpBlocks)
	scratch := make([]byte, nblocks*ps)

	// Metadata sits after block 0's data slice.
	metaPg := per
	if s.BufferPages() < per {
		metaPg = s.BufferPages()
	}
	base0 := nand.PPA(uint64(r.dumpBlocks[0]) * uint64(fc.PagesPerBlock))
	metaBuf := scratch[:ps]
	tag, tagged, _, err := s.dev.Flash().ReadPageTaggedInto(p, base0+nand.PPA(metaPg), metaBuf)
	if err == nil && tagged {
		err = integrity.Check(metaBuf, tag)
	}
	if err != nil {
		return fmt.Errorf("2bssd: restore meta: %w", err)
	}
	entries, err := r.decodeMeta(metaBuf)
	if err != nil {
		return err
	}
	wg := s.env.NewWaitGroup("2bssd.restore")
	wg.Add(nblocks)
	var firstErr error
	restore := func(w *sim.Proc, b int) {
		defer wg.Done()
		blk := r.dumpBlocks[b]
		base := nand.PPA(uint64(blk) * uint64(fc.PagesPerBlock))
		data := scratch[b*ps : (b+1)*ps]
		pg := 0
		for i := b * per; i < (b+1)*per && i < s.BufferPages(); i++ {
			tag, tagged, _, err := s.dev.Flash().ReadPageTaggedInto(w, base+nand.PPA(pg), data)
			if err == nil && tagged {
				if cerr := integrity.Check(data, tag); cerr != nil {
					err = fmt.Errorf("2bssd: restore page %d: %w", i, cerr)
				}
			}
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				return
			}
			copy(s.babuf[i*ps:(i+1)*ps], data)
			pg++
		}
	}
	for b := 0; b < nblocks; b++ {
		s.env.GoIdx("2bssd.rst", b, restore)
	}
	wg.Wait(p)
	if firstErr != nil {
		return firstErr
	}
	for _, e := range entries {
		s.table[e.ID] = e
	}
	return nil
}

// rearm erases the dump area so the next power loss can program it
// immediately (pre-erased, as real PLP firmware keeps it).
func (r *recovery) rearm(p *sim.Proc) {
	s := r.s
	wg := s.env.NewWaitGroup("2bssd.rearm")
	wg.Add(len(r.dumpBlocks))
	erase := func(w *sim.Proc, b int) {
		defer wg.Done()
		blk := r.dumpBlocks[b]
		if s.dev.Flash().NextPage(blk) == 0 {
			return // already erased
		}
		if err := s.dev.Flash().EraseBlock(w, blk); err != nil {
			// An injected erase failure retires a dump block; the
			// area keeps working at reduced parallelism as long as
			// enough blocks remain (checked at construction). Real
			// config errors still panic.
			if errors.Is(err, nand.ErrEraseFailed) || errors.Is(err, nand.ErrWornOut) {
				return
			}
			panic(fmt.Sprintf("2bssd: rearm erase failed: %v", err))
		}
	}
	for b := range r.dumpBlocks {
		s.env.GoIdx("2bssd.erase", b, erase)
	}
	wg.Wait(p)
	r.armed = true
}

// Armed reports whether the dump area is erased and ready.
func (s *TwoBSSD) Armed() bool { return s.rec.armed }

// HasDump reports whether a valid dump image awaits restore.
func (s *TwoBSSD) HasDump() bool { return s.rec.dumpValid }
