package nand

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"twobssd/internal/sim"
)

func testConfig() Config {
	return Config{
		Channels:       2,
		DiesPerChannel: 2,
		BlocksPerDie:   8,
		PagesPerBlock:  16,
		PageSize:       4096,
		ReadLatency:    3 * sim.Microsecond,
		ProgramLatency: 50 * sim.Microsecond,
		EraseLatency:   3 * sim.Millisecond,
		ChannelMBps:    1200,
	}
}

func TestConfigValidate(t *testing.T) {
	good := testConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []Config{
		{},
		func() Config { c := testConfig(); c.Channels = 0; return c }(),
		func() Config { c := testConfig(); c.PageSize = -1; return c }(),
		func() Config { c := testConfig(); c.ChannelMBps = 0; return c }(),
		func() Config { c := testConfig(); c.ReadLatency = -1; return c }(),
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestGeometryMath(t *testing.T) {
	c := testConfig()
	if c.Dies() != 4 || c.Blocks() != 32 || c.Pages() != 512 {
		t.Fatalf("dies=%d blocks=%d pages=%d", c.Dies(), c.Blocks(), c.Pages())
	}
	if c.CapacityBytes() != 512*4096 {
		t.Fatalf("capacity = %d", c.CapacityBytes())
	}
}

func TestPPARoundTrip(t *testing.T) {
	c := testConfig()
	for die := 0; die < c.Dies(); die++ {
		for blk := 0; blk < c.BlocksPerDie; blk++ {
			for pg := 0; pg < c.PagesPerBlock; pg++ {
				ppa := c.PPAOf(die, blk, pg)
				d, b, g := c.Decompose(ppa)
				if d != die || b != blk || g != pg {
					t.Fatalf("round trip (%d,%d,%d) -> %d -> (%d,%d,%d)", die, blk, pg, ppa, d, b, g)
				}
			}
		}
	}
}

func TestTransferTime(t *testing.T) {
	c := testConfig() // 1200 MB/s = 1.2 bytes/ns
	if got := c.TransferTime(4096); got != sim.Duration(4096*1000/1200) {
		t.Fatalf("transfer = %v", got)
	}
	if c.TransferTime(0) != 0 || c.TransferTime(-1) != 0 {
		t.Fatal("non-positive sizes should transfer in zero time")
	}
}

func TestProgramReadRoundTrip(t *testing.T) {
	e := sim.NewEnv()
	f := New(e, testConfig())
	payload := bytes.Repeat([]byte{0xAB}, 4096)
	e.Go("t", func(p *sim.Proc) {
		ppa := f.Config().PPAOf(0, 0, 0)
		if err := f.ProgramPage(p, ppa, payload); err != nil {
			t.Errorf("program: %v", err)
		}
		got, err := f.ReadPage(p, ppa)
		if err != nil {
			t.Errorf("read: %v", err)
		}
		if !bytes.Equal(got, payload) {
			t.Error("read back wrong data")
		}
	})
	e.Run()
	st := f.Stats()
	if st.PagePrograms != 1 || st.PageReads != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestShortProgramZeroPadded(t *testing.T) {
	e := sim.NewEnv()
	f := New(e, testConfig())
	e.Go("t", func(p *sim.Proc) {
		ppa := f.Config().PPAOf(0, 0, 0)
		if err := f.ProgramPage(p, ppa, []byte{1, 2, 3}); err != nil {
			t.Errorf("program: %v", err)
		}
		got, _ := f.ReadPage(p, ppa)
		if got[0] != 1 || got[1] != 2 || got[2] != 3 || got[3] != 0 || got[4095] != 0 {
			t.Error("short program not zero padded")
		}
	})
	e.Run()
}

func TestSequentialProgramRule(t *testing.T) {
	e := sim.NewEnv()
	f := New(e, testConfig())
	e.Go("t", func(p *sim.Proc) {
		// Page 1 before page 0 must fail.
		if err := f.ProgramPage(p, f.Config().PPAOf(0, 0, 1), nil); !errors.Is(err, ErrNotErased) {
			t.Errorf("out-of-order program: err = %v", err)
		}
		// In order works.
		for pg := 0; pg < 3; pg++ {
			if err := f.ProgramPage(p, f.Config().PPAOf(0, 0, pg), nil); err != nil {
				t.Errorf("sequential program pg %d: %v", pg, err)
			}
		}
		// Rewriting page 0 without erase must fail.
		if err := f.ProgramPage(p, f.Config().PPAOf(0, 0, 0), nil); !errors.Is(err, ErrNotErased) {
			t.Errorf("overwrite without erase: err = %v", err)
		}
	})
	e.Run()
}

func TestEraseResetsBlock(t *testing.T) {
	e := sim.NewEnv()
	f := New(e, testConfig())
	e.Go("t", func(p *sim.Proc) {
		ppa := f.Config().PPAOf(0, 0, 0)
		if err := f.ProgramPage(p, ppa, []byte{9}); err != nil {
			t.Fatalf("program: %v", err)
		}
		if err := f.EraseBlock(p, f.Config().BlockOf(ppa)); err != nil {
			t.Fatalf("erase: %v", err)
		}
		got, _ := f.ReadPage(p, ppa)
		if got[0] != 0 {
			t.Error("erase did not clear data")
		}
		if err := f.ProgramPage(p, ppa, []byte{7}); err != nil {
			t.Errorf("program after erase: %v", err)
		}
	})
	e.Run()
	if f.EraseCount(0) != 1 {
		t.Fatalf("erase count = %d", f.EraseCount(0))
	}
}

func TestEnduranceRetiresBlock(t *testing.T) {
	cfg := testConfig()
	cfg.EnduranceCycles = 2
	e := sim.NewEnv()
	f := New(e, cfg)
	e.Go("t", func(p *sim.Proc) {
		if err := f.EraseBlock(p, 0); err != nil {
			t.Errorf("erase 1: %v", err)
		}
		if err := f.EraseBlock(p, 0); !errors.Is(err, ErrWornOut) {
			t.Errorf("erase 2: err = %v, want ErrWornOut", err)
		}
		if err := f.EraseBlock(p, 0); !errors.Is(err, ErrBadBlock) {
			t.Errorf("erase after retirement: err = %v, want ErrBadBlock", err)
		}
		if err := f.ProgramPage(p, 0, nil); !errors.Is(err, ErrBadBlock) {
			t.Errorf("program bad block: err = %v, want ErrBadBlock", err)
		}
	})
	e.Run()
	if !f.IsBad(0) {
		t.Fatal("block not marked bad")
	}
}

func TestOutOfRange(t *testing.T) {
	e := sim.NewEnv()
	f := New(e, testConfig())
	e.Go("t", func(p *sim.Proc) {
		if _, err := f.ReadPage(p, PPA(f.Config().Pages())); !errors.Is(err, ErrOutOfRange) {
			t.Errorf("read: err = %v", err)
		}
		if err := f.ProgramPage(p, PPA(f.Config().Pages()), nil); !errors.Is(err, ErrOutOfRange) {
			t.Errorf("program: err = %v", err)
		}
		if err := f.EraseBlock(p, BlockID(f.Config().Blocks())); !errors.Is(err, ErrOutOfRange) {
			t.Errorf("erase: err = %v", err)
		}
	})
	e.Run()
}

func TestOversizedProgramRejected(t *testing.T) {
	e := sim.NewEnv()
	f := New(e, testConfig())
	e.Go("t", func(p *sim.Proc) {
		if err := f.ProgramPage(p, 0, make([]byte, 4097)); !errors.Is(err, ErrPageTooLarge) {
			t.Errorf("err = %v", err)
		}
	})
	e.Run()
}

func TestReadTiming(t *testing.T) {
	e := sim.NewEnv()
	f := New(e, testConfig())
	var took sim.Duration
	e.Go("t", func(p *sim.Proc) {
		start := e.Now()
		if _, err := f.ReadPage(p, 0); err != nil {
			t.Errorf("read: %v", err)
		}
		took = sim.Duration(e.Now() - start)
	})
	e.Run()
	want := 3*sim.Microsecond + testConfig().TransferTime(4096)
	if took != want {
		t.Fatalf("read took %v, want %v", took, want)
	}
}

func TestDieParallelism(t *testing.T) {
	// Two reads on different dies of different channels overlap fully;
	// two reads on the same die serialize the array time.
	cfg := testConfig()
	e := sim.NewEnv()
	f := New(e, cfg)
	perRead := cfg.ReadLatency + cfg.TransferTime(cfg.PageSize)
	// Different dies on different channels.
	e.Go("a", func(p *sim.Proc) { f.ReadPage(p, cfg.PPAOf(0, 0, 0)) })
	e.Go("b", func(p *sim.Proc) { f.ReadPage(p, cfg.PPAOf(1, 0, 0)) })
	e.Run()
	if sim.Duration(e.Now()) != perRead {
		t.Fatalf("parallel reads took %v, want %v", sim.Duration(e.Now()), perRead)
	}

	e2 := sim.NewEnv()
	f2 := New(e2, cfg)
	e2.Go("a", func(p *sim.Proc) { f2.ReadPage(p, cfg.PPAOf(0, 0, 0)) })
	e2.Go("b", func(p *sim.Proc) { f2.ReadPage(p, cfg.PPAOf(0, 0, 1)) })
	e2.Run()
	// Same die: second array read waits for the first; transfers share
	// a channel too, so total = 2*tR + 2*xfer serialized except overlap
	// of second tR with first transfer.
	min := perRead + cfg.ReadLatency
	if sim.Duration(e2.Now()) < min {
		t.Fatalf("same-die reads took %v, want >= %v", sim.Duration(e2.Now()), min)
	}
}

func TestMarkBadInjection(t *testing.T) {
	e := sim.NewEnv()
	f := New(e, testConfig())
	f.MarkBad(3)
	e.Go("t", func(p *sim.Proc) {
		ppa := PPA(uint64(3) * uint64(f.Config().PagesPerBlock))
		if err := f.ProgramPage(p, ppa, nil); !errors.Is(err, ErrBadBlock) {
			t.Errorf("err = %v, want ErrBadBlock", err)
		}
	})
	e.Run()
}

// Property: any program/read pair on a fresh block returns the data
// written, zero-padded to page size.
func TestPropertyProgramReadIdentity(t *testing.T) {
	cfg := testConfig()
	f := func(data []byte, blkSeed uint8) bool {
		if len(data) > cfg.PageSize {
			data = data[:cfg.PageSize]
		}
		e := sim.NewEnv()
		fl := New(e, cfg)
		blk := int(blkSeed) % cfg.BlocksPerDie
		ok := true
		e.Go("t", func(p *sim.Proc) {
			ppa := cfg.PPAOf(0, blk, 0)
			if err := fl.ProgramPage(p, ppa, data); err != nil {
				ok = false
				return
			}
			got, err := fl.ReadPage(p, ppa)
			if err != nil {
				ok = false
				return
			}
			want := make([]byte, cfg.PageSize)
			copy(want, data)
			ok = bytes.Equal(got, want)
		})
		e.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: PPA decomposition is a bijection over the whole array.
func TestPropertyPPABijection(t *testing.T) {
	cfg := testConfig()
	f := func(raw uint32) bool {
		ppa := PPA(uint64(raw) % uint64(cfg.Pages()))
		d, b, g := cfg.Decompose(ppa)
		return cfg.PPAOf(d, b, g) == ppa
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// An all-zero page, full-length or short, is programmed without being
// stored: it reads back as zeroes with its tag, advances the block's
// program pointer, can still be corrupted, and gives way to real data
// after an erase.
func TestZeroPageProgram(t *testing.T) {
	e := sim.NewEnv()
	f := New(e, testConfig())
	c := f.Config()
	blk := c.BlockOf(c.PPAOf(0, 0, 0))
	e.Go("t", func(p *sim.Proc) {
		for pg, data := range [][]byte{make([]byte, c.PageSize), make([]byte, 3)} {
			ppa := c.PPAOf(0, 0, pg)
			if err := f.ProgramPageTagged(p, ppa, data, 0xC0DE+uint32(pg)); err != nil {
				t.Fatalf("program zero page %d: %v", pg, err)
			}
			if got := f.NextPage(blk); got != pg+1 {
				t.Errorf("NextPage after page %d = %d, want %d", pg, got, pg+1)
			}
			got, err := f.ReadPage(p, ppa)
			if err != nil || !bytes.Equal(got, make([]byte, c.PageSize)) {
				t.Errorf("page %d: ReadPage not all zeroes (err %v)", pg, err)
			}
			if !bytes.Equal(f.PeekPage(ppa), make([]byte, c.PageSize)) {
				t.Errorf("page %d: PeekPage not all zeroes", pg)
			}
			if tag, ok := f.PeekTag(ppa); !ok || tag != 0xC0DE+uint32(pg) {
				t.Errorf("page %d: PeekTag = %#x, %v", pg, tag, ok)
			}
		}
		ppa := c.PPAOf(0, 0, 1)
		if !f.CorruptPage(ppa, 2) {
			t.Fatal("CorruptPage reported a programmed zero page as unprogrammed")
		}
		got, _ := f.ReadPage(p, ppa)
		if got[0] != 1 || got[1] != 1 || got[2] != 0 {
			t.Errorf("corrupted zero page reads %v, want the low bit of 2 bytes flipped", got[:3])
		}
		if f.CorruptPage(c.PPAOf(0, 0, 2), 1) {
			t.Error("CorruptPage reported an unprogrammed page as programmed")
		}
		if err := f.EraseBlock(p, blk); err != nil {
			t.Fatalf("erase: %v", err)
		}
		if got, _ := f.ReadPage(p, ppa); !bytes.Equal(got, make([]byte, c.PageSize)) {
			t.Error("erased page not all zeroes")
		}
		payload := bytes.Repeat([]byte{0x5A}, c.PageSize)
		for pg := 0; pg < 2; pg++ {
			if err := f.ProgramPage(p, c.PPAOf(0, 0, pg), payload); err != nil {
				t.Fatalf("program after erase: %v", err)
			}
			if got, _ := f.ReadPage(p, c.PPAOf(0, 0, pg)); !bytes.Equal(got, payload) {
				t.Errorf("page %d after erase reads back wrong data", pg)
			}
		}
	})
	e.Run()
}

// Programming an all-zero page allocates nothing on the host.
func TestZeroPageProgramAllocFree(t *testing.T) {
	e := sim.NewEnv()
	f := New(e, testConfig())
	c := f.Config()
	zero := make([]byte, c.PageSize)
	e.Go("t", func(p *sim.Proc) {
		pg := 0
		allocs := testing.AllocsPerRun(c.PagesPerBlock-1, func() {
			if err := f.ProgramPage(p, c.PPAOf(0, 0, pg), zero); err != nil {
				t.Fatal(err)
			}
			pg++
		})
		if allocs != 0 {
			t.Errorf("zero-page program: %v allocs, want 0", allocs)
		}
	})
	e.Run()
}
