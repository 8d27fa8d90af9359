package workload

import (
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/quarantine"
	"repro/internal/revoke"
)

func runProfile(t *testing.T, name string, opts Options) Result {
	t.Helper()
	p, ok := ByName(name)
	if !ok {
		t.Fatalf("unknown profile %q", name)
	}
	sys, err := core.New(core.Config{
		Policy: quarantine.Policy{Fraction: 0.25, MinBytes: 64 << 10},
		Revoke: revoke.Config{UseCapDirty: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(sys, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestProfilesComplete(t *testing.T) {
	all := All()
	if len(all) != 17 {
		t.Fatalf("got %d profiles, want 17 (Table 2)", len(all))
	}
	if all[0].Name != "ffmpeg" || all[16].Name != "xalancbmk" {
		t.Error("profile order must match the paper's plots")
	}
	seen := map[string]bool{}
	for _, p := range all {
		if seen[p.Name] {
			t.Errorf("duplicate profile %s", p.Name)
		}
		seen[p.Name] = true
		if p.LineDensity > p.PageDensity {
			t.Errorf("%s: line density %.2f exceeds page density %.2f", p.Name, p.LineDensity, p.PageDensity)
		}
		if p.MeanAllocBytes() < 16 {
			t.Errorf("%s: mean alloc %f too small", p.Name, p.MeanAllocBytes())
		}
	}
	if len(SPEC()) != 16 {
		t.Errorf("SPEC subset = %d profiles, want 16 (Figure 5)", len(SPEC()))
	}
}

func TestRunDeterministic(t *testing.T) {
	opts := Options{Seed: 7, MinSweeps: 2, MaxLiveBytes: 4 << 20}
	a := runProfile(t, "omnetpp", opts)
	b := runProfile(t, "omnetpp", opts)
	if a.Frees != b.Frees || a.FreedBytes != b.FreedBytes || a.Mallocs != b.Mallocs {
		t.Errorf("nondeterministic run: %+v vs %+v", a, b)
	}
	if a.Sys.Stats().SweepSeconds != b.Sys.Stats().SweepSeconds {
		t.Error("sweep timing nondeterministic")
	}
}

func TestRunReachesSweeps(t *testing.T) {
	res := runProfile(t, "xalancbmk", Options{MinSweeps: 3, MaxLiveBytes: 4 << 20})
	if got := res.Sys.Stats().Sweeps; got < 3 {
		t.Errorf("Sweeps = %d, want >= 3", got)
	}
	if res.AppSeconds <= 0 {
		t.Error("AppSeconds not populated")
	}
	if res.Sys.Stats().SweepSeconds <= 0 {
		t.Error("no sweep time accumulated")
	}
}

func TestMeasuredRatesMatchProfile(t *testing.T) {
	// The generator must reproduce Table 2's free rate and frees/s by
	// construction (they define the event pacing).
	for _, name := range []string{"omnetpp", "dealII", "soplex"} {
		res := runProfile(t, name, Options{MinSweeps: 2, MaxLiveBytes: 4 << 20})
		p := res.Profile
		if ratio := res.MeasuredFreeRateMiB / p.FreeRateMiB; ratio < 0.99 || ratio > 1.01 {
			t.Errorf("%s: measured free rate %.1f MiB/s vs target %.1f", name, res.MeasuredFreeRateMiB, p.FreeRateMiB)
		}
		if p.FreesPerSec > 0 {
			if ratio := res.MeasuredFreesPerSec / p.FreesPerSec; ratio < 0.5 || ratio > 2 {
				t.Errorf("%s: measured %.0f frees/s vs target %.0f", name, res.MeasuredFreesPerSec, p.FreesPerSec)
			}
		}
	}
}

func TestMeasuredDensityTracksProfile(t *testing.T) {
	// Density emerges from the planting parameters; allow a loose band
	// (the generator is statistical and pages mix object classes).
	for _, name := range []string{"omnetpp", "xalancbmk", "hmmer"} {
		res := runProfile(t, name, Options{MinSweeps: 2, MaxLiveBytes: 8 << 20})
		p := res.Profile
		got := res.MeasuredPageDensity
		if p.PageDensity > 0.5 && got < p.PageDensity*0.6 {
			t.Errorf("%s: page density %.2f far below target %.2f", name, got, p.PageDensity)
		}
		if p.PageDensity < 0.1 && got > p.PageDensity*4+0.1 {
			t.Errorf("%s: page density %.2f far above target %.2f", name, got, p.PageDensity)
		}
		if res.MeasuredLineDensity > got {
			t.Errorf("%s: line density %.3f above page density %.3f", name, res.MeasuredLineDensity, got)
		}
	}
}

func TestNonAllocatingProfileNeverSweeps(t *testing.T) {
	res := runProfile(t, "bzip2", Options{MinSweeps: 3, MaxLiveBytes: 4 << 20})
	if res.Sys.Stats().Sweeps != 0 {
		t.Errorf("bzip2 swept %d times; it frees nothing", res.Sys.Stats().Sweeps)
	}
	if res.Frees != 0 {
		t.Errorf("bzip2 freed %d objects", res.Frees)
	}
}

func TestTemporalFragmentationShapesSharedLines(t *testing.T) {
	// xalancbmk (interleaved lifetimes) must show a higher shared-line
	// fraction and cache effect than soplex (large, grouped frees).
	x := runProfile(t, "xalancbmk", Options{MinSweeps: 2, MaxLiveBytes: 4 << 20})
	s := runProfile(t, "soplex", Options{MinSweeps: 2, MaxLiveBytes: 4 << 20})
	if x.CacheEffectSeconds <= s.CacheEffectSeconds {
		t.Errorf("cache effect: xalancbmk %.2e <= soplex %.2e",
			x.CacheEffectSeconds, s.CacheEffectSeconds)
	}
}

func TestRunInvariantsHold(t *testing.T) {
	res := runProfile(t, "dealII", Options{MinSweeps: 2, MaxLiveBytes: 4 << 20})
	if !res.Sys.Mem().CheckTagInvariant() {
		t.Error("tag invariant violated after workload")
	}
	if err := res.Sys.Allocator().CheckInvariants(); err != nil {
		t.Errorf("allocator invariants: %v", err)
	}
	if res.PeakFootprint == 0 {
		t.Error("peak footprint not tracked")
	}
}

func TestDirectModeRun(t *testing.T) {
	p, _ := ByName("omnetpp")
	sys, err := core.New(core.Config{DirectFree: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(sys, p, Options{MinSweeps: 1, MaxEvents: 20000, MaxLiveBytes: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sys.Stats().Sweeps != 0 {
		t.Error("direct mode swept")
	}
	if res.Frees == 0 {
		t.Error("direct mode did not free")
	}
}

// TestLiveSetMatchesSlice drives liveSet across many blocks, with the head
// passing some and random picks landing in others, against a plain slice
// with the same numbering: every take must return the same handle and
// allocation index.
func TestLiveSetMatchesSlice(t *testing.T) {
	r, rr := newRNG(7), newRNG(7)
	var l liveSet
	var ref []handle // ref[head:] may be live, as in l
	head, count := 0, 0
	refTake := func(frag float64) (int, handle, bool) {
		if count == 0 {
			return 0, handle{}, false
		}
		if rr.float() < frag {
			for tries := 0; tries < 32; tries++ {
				i := head + rr.intn(len(ref)-head)
				if ref[i].word&handleDead == 0 {
					ref[i].word |= handleDead
					count--
					return i, ref[i], true
				}
			}
		}
		for head < len(ref) {
			i := head
			head++
			if ref[i].word&handleDead == 0 {
				count--
				return i, ref[i], true
			}
		}
		return 0, handle{}, false
	}
	next := 0
	for round := 0; round < 40; round++ {
		// Alternate growth and shrinkage so the head passes blocks
		// that are then reused at the tail.
		adds, takes := 3*blockLen/2, blockLen
		if round%2 == 1 {
			adds, takes = blockLen/2, 2*blockLen
		}
		for range adds {
			h := handle{word: uint64(next) * 16, size: 16}
			if next%3 == 0 {
				h.word |= handleCaps
			}
			next++
			l.add(h)
			ref = append(ref, h)
			count++
		}
		for i := range takes {
			frag := float64(i%4) / 4
			gotIdx, got, ok := l.take(r, frag)
			wantIdx, want, wantOK := refTake(frag)
			if gotIdx != wantIdx || got != want || ok != wantOK {
				t.Fatalf("round %d take %d: got %d %+v, %v; want %d %+v, %v", round, i, gotIdx, got, ok, wantIdx, want, wantOK)
			}
		}
		if l.count != count {
			t.Fatalf("round %d: count %d, want %d", round, l.count, count)
		}
	}
	if blocks := len(l.items.blocks) + len(l.items.spare); blocks > (len(ref)-head)/blockLen+4 {
		t.Errorf("live set holds %d blocks for %d slots past the head", blocks, len(ref)-head)
	}
}

// TestHandleLayout pins a live-set handle at 16 bytes: the live set holds
// one per malloc of a run, so its size shows in the host's peak memory.
func TestHandleLayout(t *testing.T) {
	if n := unsafe.Sizeof(handle{}); n != 16 {
		t.Errorf("handle is %d bytes, want 16", n)
	}
}

func TestLiveSetTake(t *testing.T) {
	r := newRNG(1)
	var l liveSet
	for i := uint64(0); i < 10; i++ {
		l.add(handle{word: i * 16, size: 16})
	}
	// FIFO mode returns in insertion order.
	idx, h, ok := l.take(r, 0)
	if !ok || idx != 0 || h.addr() != 0 {
		t.Errorf("FIFO take = %d, %+v", idx, h)
	}
	// Random mode never returns an already-taken handle, and a handle's
	// index is its position.
	seen := map[int]bool{0: true}
	for i := 0; i < 9; i++ {
		idx, h, ok := l.take(r, 1)
		if !ok {
			t.Fatalf("take %d failed", i)
		}
		if seen[idx] || h.addr() != uint64(idx)*16 {
			t.Fatalf("take %d returned index %d, handle %+v", i, idx, h)
		}
		seen[idx] = true
	}
	if _, _, ok := l.take(r, 0.5); ok {
		t.Error("take from empty set succeeded")
	}
}
