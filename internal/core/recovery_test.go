package core

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"twobssd/internal/sim"
)

func TestPowerLossPersistsSyncedData(t *testing.T) {
	e := sim.NewEnv()
	s := newSSD(e)
	ps := s.PageSize()
	payload := []byte("committed transaction log record")
	e.Go("t", func(p *sim.Proc) {
		if err := s.BAPin(p, 1, ps, 7, 2); err != nil {
			t.Fatalf("pin: %v", err)
		}
		s.Mmio().Write(p, ps, payload)
		s.BASync(p, 1)

		rep, err := s.PowerLoss(p)
		if err != nil {
			t.Fatalf("power loss: %v", err)
		}
		if !rep.Persisted {
			t.Fatal("dump not persisted")
		}
		if rep.EnergyUsedJ >= rep.EnergyBudgetJ {
			t.Fatalf("energy %.2f mJ over budget %.2f mJ", rep.EnergyUsedJ*1e3, rep.EnergyBudgetJ*1e3)
		}
		if err := s.PowerOn(p); err != nil {
			t.Fatalf("power on: %v", err)
		}
		// BA-buffer content and mapping table restored.
		got := make([]byte, len(payload))
		if err := s.Mmio().Read(p, ps, got); err != nil {
			t.Fatalf("read: %v", err)
		}
		if !bytes.Equal(got, payload) {
			t.Errorf("restored %q, want %q", got, payload)
		}
		ent, err := s.BAGetEntryInfo(p, 1)
		if err != nil {
			t.Fatalf("entry lost: %v", err)
		}
		if ent.LBA != 7 || ent.Pages != 2 || ent.Offset != ps {
			t.Errorf("entry = %+v", ent)
		}
		// Pinned range still gated after recovery.
		if err := s.Device().WritePages(p, 7, make([]byte, ps)); !errors.Is(err, ErrPinnedRange) {
			t.Errorf("gate not restored: err = %v", err)
		}
		// And the recovered entry can be flushed to NAND.
		if err := s.BAFlush(p, 1); err != nil {
			t.Fatalf("flush after recovery: %v", err)
		}
		data, err := s.Device().ReadPages(p, 7, 1)
		if err != nil {
			t.Fatalf("block read: %v", err)
		}
		if !bytes.HasPrefix(data, payload) {
			t.Error("flushed data wrong after recovery")
		}
	})
	e.Run()
}

func TestPowerLossDropsUnsyncedWCData(t *testing.T) {
	e := sim.NewEnv()
	s := newSSD(e)
	ps := s.PageSize()
	e.Go("t", func(p *sim.Proc) {
		if err := s.BAPin(p, 0, 0, 0, 1); err != nil {
			t.Fatalf("pin: %v", err)
		}
		s.Mmio().Write(p, 0, []byte{0xAB, 0xCD}) // never synced
		rep, err := s.PowerLoss(p)
		if err != nil {
			t.Fatalf("power loss: %v", err)
		}
		if rep.LostWCBursts == 0 {
			t.Error("expected lost WC bursts")
		}
		if err := s.PowerOn(p); err != nil {
			t.Fatalf("power on: %v", err)
		}
		got := make([]byte, 2)
		s.Mmio().Read(p, 0, got)
		if got[0] == 0xAB {
			t.Error("unsynced data survived power loss — durability model broken")
		}
		_ = ps
	})
	e.Run()
}

func TestPowerLossWithInsufficientCapacitors(t *testing.T) {
	cfg := testConfig()
	cfg.CapacitorsUF = []float64{0.001} // hopeless
	e := sim.NewEnv()
	s := New(e, cfg)
	e.Go("t", func(p *sim.Proc) {
		s.BAPin(p, 0, 0, 0, 1)
		s.Mmio().Write(p, 0, []byte{1})
		s.BASync(p, 0)
		_, err := s.PowerLoss(p)
		if !errors.Is(err, ErrInsufficient) {
			t.Fatalf("err = %v, want ErrInsufficient", err)
		}
		if err := s.PowerOn(p); err != nil {
			t.Fatalf("power on: %v", err)
		}
		// No dump image: buffer comes up empty, entry table empty.
		got := make([]byte, 1)
		s.Mmio().Read(p, 0, got)
		if got[0] != 0 {
			t.Error("data survived an under-provisioned dump")
		}
		if len(s.Entries()) != 0 {
			t.Error("entries survived an under-provisioned dump")
		}
	})
	e.Run()
}

func TestAPIsRejectedWhilePoweredOff(t *testing.T) {
	e := sim.NewEnv()
	s := newSSD(e)
	e.Go("t", func(p *sim.Proc) {
		if _, err := s.PowerLoss(p); err != nil {
			t.Fatalf("power loss: %v", err)
		}
		if err := s.BAPin(p, 0, 0, 0, 1); !errors.Is(err, ErrPowerIsOff) {
			t.Errorf("pin err = %v", err)
		}
		if err := s.BASync(p, 0); !errors.Is(err, ErrPowerIsOff) {
			t.Errorf("sync err = %v", err)
		}
		if _, err := s.PowerLoss(p); !errors.Is(err, ErrPowerIsOff) {
			t.Errorf("double power-loss err = %v", err)
		}
		if err := s.PowerOn(p); err != nil {
			t.Fatalf("power on: %v", err)
		}
		if err := s.PowerOn(p); err == nil {
			t.Error("double power-on accepted")
		}
	})
	e.Run()
}

func TestRepeatedPowerCycles(t *testing.T) {
	e := sim.NewEnv()
	s := newSSD(e)
	ps := s.PageSize()
	e.Go("t", func(p *sim.Proc) {
		if err := s.BAPin(p, 0, 0, 3, 1); err != nil {
			t.Fatalf("pin: %v", err)
		}
		for cycle := byte(1); cycle <= 4; cycle++ {
			s.Mmio().Write(p, 0, []byte{cycle})
			s.BASync(p, 0)
			if _, err := s.PowerLoss(p); err != nil {
				t.Fatalf("cycle %d loss: %v", cycle, err)
			}
			if err := s.PowerOn(p); err != nil {
				t.Fatalf("cycle %d on: %v", cycle, err)
			}
			got := make([]byte, 1)
			s.Mmio().Read(p, 0, got)
			if got[0] != cycle {
				t.Fatalf("cycle %d: got %d", cycle, got[0])
			}
		}
		_ = ps
	})
	e.Run()
}

func TestDumpIsDieParallel(t *testing.T) {
	// The dump of the whole BA-buffer must complete in roughly
	// (pages-per-die-block) serial programs, not (total-pages) —
	// otherwise capacitors could never cover it.
	e := sim.NewEnv()
	cfg := testConfig()
	s := New(e, cfg)
	e.Go("t", func(p *sim.Proc) {
		rep, err := s.PowerLoss(p)
		if err != nil {
			t.Fatalf("power loss: %v", err)
		}
		// 64 buffer pages over 4 dies => 16+1 pages/block; each program
		// ≈ 53.4 µs => ~0.9 ms. Serial would be ~3.4 ms.
		if rep.DumpDuration > 2*sim.Millisecond {
			t.Errorf("dump took %v — not die-parallel", rep.DumpDuration)
		}
	})
	e.Run()
}

func TestMetaCodecRoundTrip(t *testing.T) {
	e := sim.NewEnv()
	s := newSSD(e)
	ps := s.PageSize()
	e.Go("t", func(p *sim.Proc) {
		s.BAPin(p, 0, 0, 0, 1)
		s.BAPin(p, 5, 8*ps, 40, 3)
	})
	e.Run()
	meta := s.rec.encodeMeta()
	entries, err := s.rec.decodeMeta(meta)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(entries) != 2 {
		t.Fatalf("decoded %d entries", len(entries))
	}
	if entries[1].ID != 5 || entries[1].Offset != 8*ps || entries[1].LBA != 40 || entries[1].Pages != 3 {
		t.Fatalf("entry = %+v", entries[1])
	}
	// Corrupt the CRC region: decode must fail.
	meta[20] ^= 0xFF
	if _, err := s.rec.decodeMeta(meta); err == nil {
		t.Fatal("corrupted metadata accepted")
	}
	// Corrupt the magic: decode must fail.
	meta[0] = 0
	if _, err := s.rec.decodeMeta(meta); err == nil {
		t.Fatal("bad magic accepted")
	}
}

// Property: any synced byte pattern at any page-aligned pin survives a
// full power cycle bit-for-bit.
func TestPropertyPowerCyclePreservesSyncedBytes(t *testing.T) {
	cfg := testConfig()
	prop := func(data []byte, pageSeed uint8) bool {
		if len(data) == 0 {
			return true
		}
		if len(data) > 4096 {
			data = data[:4096]
		}
		e := sim.NewEnv()
		s := New(e, cfg)
		ps := s.PageSize()
		page := int(pageSeed) % s.BufferPages()
		ok := true
		e.Go("t", func(p *sim.Proc) {
			if err := s.BAPin(p, 0, page*ps, 0, 1); err != nil {
				ok = false
				return
			}
			s.Mmio().Write(p, page*ps, data)
			s.BASync(p, 0)
			if _, err := s.PowerLoss(p); err != nil {
				ok = false
				return
			}
			if err := s.PowerOn(p); err != nil {
				ok = false
				return
			}
			got := make([]byte, len(data))
			s.Mmio().Read(p, page*ps, got)
			ok = bytes.Equal(got, data)
		})
		e.Run()
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// powerCycleConfig is the full-spec device with a BA-buffer of the
// given page count; its dump area is one block per die at any size up
// to 8 MB, so the dump and restore run the same workers.
func powerCycleConfig(pages int) Config {
	cfg := DefaultConfig()
	cfg.BABufferBytes = pages * cfg.Base.Nand.PageSize
	return cfg
}

// newCycleSSD builds a 2B-SSD with one synced, pinned page of data in
// its BA-buffer; the rest of the buffer is zero, as after a fresh pin.
func newCycleSSD(tb testing.TB, e *sim.Env, cfg Config) *TwoBSSD {
	s := New(e, cfg)
	e.Go("setup", func(p *sim.Proc) {
		err := s.BAPin(p, 0, 0, 5, 1)
		if err == nil {
			err = s.Mmio().Write(p, 0, bytes.Repeat([]byte{0x5A}, s.PageSize()))
		}
		if err == nil {
			err = s.BASync(p, 0)
		}
		if err != nil {
			tb.Errorf("setup: %v", err)
		}
	})
	e.Run()
	return s
}

// powerCycle runs one PowerLoss→PowerOn cycle through a persisted dump.
func powerCycle(p *sim.Proc, s *TwoBSSD) error {
	rep, err := s.PowerLoss(p)
	if err != nil {
		return err
	}
	if !rep.Persisted {
		return errors.New("dump not persisted")
	}
	return s.PowerOn(p)
}

// The host allocations of a power cycle do not grow with the BA-buffer:
// dump and restore move pages without allocating one per page.
func TestPowerCycleAllocsIndependentOfBufferSize(t *testing.T) {
	allocs := func(pages int) float64 {
		e := sim.NewEnv()
		s := newCycleSSD(t, e, powerCycleConfig(pages))
		var n float64
		e.Go("t", func(p *sim.Proc) {
			n = testing.AllocsPerRun(3, func() {
				if err := powerCycle(p, s); err != nil {
					t.Errorf("%d pages: %v", pages, err)
				}
			})
			got := make([]byte, s.PageSize())
			if err := s.Mmio().Read(p, 0, got); err != nil || !bytes.Equal(got, bytes.Repeat([]byte{0x5A}, s.PageSize())) {
				t.Errorf("%d pages: synced page not restored (err %v)", pages, err)
			}
		})
		e.Run()
		return n
	}
	small, large := allocs(256), allocs(2048)
	if large > small+16 {
		t.Errorf("power cycle allocs: %v at 256 pages, %v at 2048; want at most 16 more", small, large)
	}
}

// BenchmarkPowerCycle measures one PowerLoss→PowerOn cycle at the crash
// campaign's stack size (1 MB BA-buffer, 4 dies) and at full spec (8 MB,
// 64 dies). Run with -benchmem.
func BenchmarkPowerCycle(b *testing.B) {
	crash := testConfig()
	crash.BABufferBytes = 256 * 4096
	for _, bc := range []struct {
		name string
		cfg  Config
	}{{"1MB", crash}, {"8MB", DefaultConfig()}} {
		b.Run(bc.name, func(b *testing.B) {
			e := sim.NewEnv()
			s := newCycleSSD(b, e, bc.cfg)
			e.Go("b", func(p *sim.Proc) {
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := powerCycle(p, s); err != nil {
						b.Error(err)
						return
					}
				}
			})
			e.Run()
		})
	}
}
