package core

import (
	"errors"
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
)

func TestConcurrentSweepChargesContentionOnly(t *testing.T) {
	run := func(concurrent bool) (Stats, Report) {
		s := newSystem(t, Config{NoAutoRevoke: true, ConcurrentSweep: concurrent})
		for i := 0; i < 64; i++ {
			c, err := s.Malloc(4096)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Free(c); err != nil {
				t.Fatal(err)
			}
		}
		rep, err := s.Revoke()
		if err != nil {
			t.Fatal(err)
		}
		return s.Stats(), rep
	}
	stw, stwRep := run(false)
	conc, concRep := run(true)
	if concRep.SweepSeconds != stwRep.SweepSeconds {
		t.Errorf("background duration changed: %.3g vs %.3g", concRep.SweepSeconds, stwRep.SweepSeconds)
	}
	if concRep.MainThreadSeconds >= stwRep.MainThreadSeconds {
		t.Errorf("concurrent main-thread charge %.3g not below stop-the-world %.3g",
			concRep.MainThreadSeconds, stwRep.MainThreadSeconds)
	}
	if conc.SweepSeconds >= stw.SweepSeconds {
		t.Errorf("concurrent SweepSeconds %.3g not below %.3g", conc.SweepSeconds, stw.SweepSeconds)
	}
	if conc.BackgroundSweepSeconds == 0 {
		t.Error("background seconds not tracked")
	}
	if stw.BackgroundSweepSeconds != 0 {
		t.Error("stop-the-world run recorded background time")
	}
}

func TestConcurrentSweepStillRevokes(t *testing.T) {
	s := newSystem(t, Config{NoAutoRevoke: true, ConcurrentSweep: true})
	c, _ := s.Malloc(64)
	s.AddRoot(&c)
	if err := s.Free(c); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Revoke(); err != nil {
		t.Fatal(err)
	}
	if c.Tag() {
		t.Error("concurrent sweep failed to revoke")
	}
}

func TestConcurrentSweepSingleCoreFallsBack(t *testing.T) {
	// The FPGA machine has one core: concurrency is impossible, so the
	// full sweep is charged to the main thread.
	cfg := Config{NoAutoRevoke: true, ConcurrentSweep: true}
	cfg.Machine = fpgaMachine()
	s := newSystem(t, cfg)
	c, _ := s.Malloc(4096)
	if err := s.Free(c); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Revoke()
	if err != nil {
		t.Fatal(err)
	}
	if rep.MainThreadSeconds != rep.SweepSeconds {
		t.Errorf("single-core concurrent sweep charged %.3g, want full %.3g",
			rep.MainThreadSeconds, rep.SweepSeconds)
	}
}

func TestUnmapLargeRetiresPages(t *testing.T) {
	s := newSystem(t, Config{NoAutoRevoke: true, UnmapLarge: true})
	// A page-aligned multi-page allocation is retired entirely on free.
	c, err := s.Malloc(4 * mem.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	s.AddRoot(&c)
	base := c.Base()
	if base%mem.PageSize != 0 {
		t.Skipf("allocation not page-aligned (base %#x); layout changed", base)
	}
	if err := s.Free(c); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.UnmappedBytes != 4*mem.PageSize || st.UnmappedChunks != 1 {
		t.Fatalf("unmapped %d bytes / %d chunks", st.UnmappedBytes, st.UnmappedChunks)
	}
	// No quarantine, no sweep needed: the dangling access faults on the
	// unmapped page even though the capability's tag is still set.
	if s.QuarantineBytes() != 0 {
		t.Errorf("quarantined %d bytes; large free should unmap instead", s.QuarantineBytes())
	}
	if _, err := s.Mem().LoadWord(c, base); !errors.Is(err, mem.ErrUnmapped) {
		t.Errorf("dangling access: got %v, want ErrUnmapped", err)
	}
	// The retired range is never reallocated.
	d, err := s.Malloc(4 * mem.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if d.Base() == base {
		t.Error("retired address range was reused")
	}
}

func TestUnmapLargeQuarantinesSlack(t *testing.T) {
	s := newSystem(t, Config{NoAutoRevoke: true, UnmapLarge: true})
	// Misalign the heap so the next chunk straddles page boundaries.
	if _, err := s.Malloc(48); err != nil {
		t.Fatal(err)
	}
	c, err := s.Malloc(3 * mem.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if c.Base()%mem.PageSize == 0 {
		t.Skip("chunk unexpectedly aligned; slack test needs a straddler")
	}
	if err := s.Free(c); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.UnmappedBytes == 0 {
		t.Fatal("no pages unmapped for straddling chunk")
	}
	if s.QuarantineBytes() == 0 {
		t.Fatal("head/tail slack not quarantined")
	}
	if st.UnmappedBytes+s.QuarantineBytes() != 3*mem.PageSize {
		t.Errorf("unmapped %d + quarantined %d != %d",
			st.UnmappedBytes, s.QuarantineBytes(), 3*mem.PageSize)
	}
	// A sweep still works and recycles the slack.
	if _, err := s.Revoke(); err != nil {
		t.Fatal(err)
	}
	if err := s.Allocator().CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestUnmapLargeSmallFreesUnaffected(t *testing.T) {
	s := newSystem(t, Config{NoAutoRevoke: true, UnmapLarge: true})
	c, _ := s.Malloc(64)
	if err := s.Free(c); err != nil {
		t.Fatal(err)
	}
	if s.Stats().UnmappedBytes != 0 {
		t.Error("sub-page free unmapped pages")
	}
	if s.QuarantineBytes() != 64 {
		t.Errorf("QuarantineBytes = %d", s.QuarantineBytes())
	}
}

func TestHooksFire(t *testing.T) {
	var preQuarantine uint64
	var reports []Report
	cfg := Config{
		NoAutoRevoke: true,
		PreSweep:     func(s *System) { preQuarantine = s.QuarantineBytes() },
		OnRevoke:     func(r Report) { reports = append(reports, r) },
	}
	s := newSystem(t, cfg)
	c, _ := s.Malloc(4096)
	if err := s.Free(c); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Revoke(); err != nil {
		t.Fatal(err)
	}
	if preQuarantine != 4096 {
		t.Errorf("PreSweep saw %d quarantined bytes, want 4096 (buffer still full)", preQuarantine)
	}
	if len(reports) != 1 || reports[0].BytesRecycled != 4096 {
		t.Errorf("OnRevoke reports: %+v", reports)
	}
}

func fpgaMachine() sim.Machine { return sim.CHERIFPGA() }
