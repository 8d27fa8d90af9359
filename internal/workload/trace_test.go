package workload

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/quarantine"
	"repro/internal/revoke"
)

func traceSystem(t *testing.T, cfg core.Config) *core.System {
	t.Helper()
	if cfg.Policy == (quarantine.Policy{}) {
		cfg.Policy = quarantine.Policy{Fraction: 0.25, MinBytes: 64 << 10}
	}
	sys, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// recordedRun records an omnetpp run through Options.Stream and returns the
// decoded trace and the run's result.
func recordedRun(t *testing.T) (TraceHeader, []TraceEvent, Result) {
	t.Helper()
	p, _ := ByName("omnetpp")
	sys := traceSystem(t, core.Config{Revoke: revoke.Config{UseCapDirty: true}})
	var buf bytes.Buffer
	w, err := NewBinaryTraceWriter(&buf, TraceHeader{Name: p.Name, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(sys, p, Options{Seed: 11, MinSweeps: 2, MaxLiveBytes: 2 << 20, Stream: w})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	hdr, events := decode(t, buf.Bytes(), FormatBinary)
	return hdr, events, res
}

// replay applies events to sys in one window, the way a replay of a trace
// held whole runs, and returns the number of events applied.
func replay(sys *core.System, events []TraceEvent) (int, error) {
	ir := NewIncrementalReplay(sys)
	err := ir.ApplyWindow(events)
	return int(ir.Stats().Events), err
}

func TestRecordCapturesRun(t *testing.T) {
	hdr, events, res := recordedRun(t)
	if hdr.Name != "omnetpp" || hdr.Seed != 11 {
		t.Errorf("trace header: %q seed %d", hdr.Name, hdr.Seed)
	}
	var mallocs, frees, plants int
	for _, ev := range events {
		switch ev.Op {
		case EvMalloc:
			mallocs++
		case EvFree:
			frees++
		case EvPlant:
			plants++
		}
	}
	if uint64(mallocs) != res.Mallocs {
		t.Errorf("recorded %d mallocs, run did %d", mallocs, res.Mallocs)
	}
	if uint64(frees) != res.Frees {
		t.Errorf("recorded %d frees, run did %d", frees, res.Frees)
	}
	if plants == 0 {
		t.Error("no capability plants recorded for a pointer-dense workload")
	}
}

func TestReplayReproducesRun(t *testing.T) {
	_, events, res := recordedRun(t)
	sys := traceSystem(t, core.Config{Revoke: revoke.Config{UseCapDirty: true}})
	if _, err := replay(sys, events); err != nil {
		t.Fatalf("replay: %v", err)
	}
	// An identically-configured system replaying the trace reaches the
	// same end state: same sweep count, same heap geometry, same stats.
	orig, got := res.Sys.Stats(), sys.Stats()
	if got.Sweeps != orig.Sweeps || got.Frees != orig.Frees || got.CapsRevoked != orig.CapsRevoked {
		t.Errorf("replay stats %+v != original %+v", got, orig)
	}
	if sys.HeapBytes() != res.Sys.HeapBytes() {
		t.Errorf("replay heap %d != original %d", sys.HeapBytes(), res.Sys.HeapBytes())
	}
	if !sys.Mem().CheckTagInvariant() {
		t.Error("tag invariant violated after replay")
	}
}

func TestReplayAcrossConfigurations(t *testing.T) {
	// The same trace runs under the insecure allocator and under typed
	// reuse — the controlled comparison Figure 5b's normalisation needs.
	_, events, _ := recordedRun(t)

	direct := traceSystem(t, core.Config{DirectFree: true})
	if _, err := replay(direct, events); err != nil {
		t.Fatalf("direct replay: %v", err)
	}
	if direct.Stats().Sweeps != 0 {
		t.Error("direct replay swept")
	}

	typed := traceSystem(t, core.Config{DirectFree: true, Alloc: alloc.Options{TypedReuse: true}})
	if _, err := replay(typed, events); err != nil {
		t.Fatalf("typed replay: %v", err)
	}
	// Typed reuse cannot be more compact than the classic allocator.
	if typed.HeapBytes() < direct.HeapBytes() {
		t.Errorf("typed heap %d < classic heap %d", typed.HeapBytes(), direct.HeapBytes())
	}
}

func TestReplayRejectsCorruptTraces(t *testing.T) {
	sys := traceSystem(t, core.Config{})
	bad := [][]TraceEvent{
		{{Op: EvFree, Ref: 0}},                            // free before malloc
		{{Op: EvMalloc, Size: 64}, {Op: EvPlant, Ref: 5}}, // wild ref
		{{Op: 'z'}}, // unknown op
		{{Op: EvMalloc, Size: 64}, {Op: EvFree, Ref: 0}, {Op: EvFree, Ref: 0}}, // double free
	}
	for i, events := range bad {
		if _, err := replay(sys, events); err == nil {
			t.Errorf("corrupt trace %d accepted", i)
		}
	}
}

// TestReplayRejectsFreedRefAfterReuse: on a direct-free system the second
// malloc reuses the first one's address, so an address check alone would
// let a second free of ref 0 release ref 1's object. A replay must reject
// it, and a plant through a freed ref, at that event, whether the trace is
// applied in one window or streamed in windows of two.
func TestReplayRejectsFreedRefAfterReuse(t *testing.T) {
	reuse := []TraceEvent{{Op: EvMalloc, Size: 64}, {Op: EvFree, Ref: 0}, {Op: EvMalloc, Size: 64}}
	for _, tc := range []struct {
		name string
		last TraceEvent
	}{
		{"double free", TraceEvent{Op: EvFree, Ref: 0}},
		{"plant after free", TraceEvent{Op: EvPlant, Ref: 0}},
	} {
		events := append(append([]TraceEvent(nil), reuse...), tc.last)
		for _, cfg := range []core.Config{{DirectFree: true}, {}} {
			n, err := replay(traceSystem(t, cfg), events)
			if n != 3 || err == nil || !strings.Contains(err.Error(), "ref 0 was already freed") {
				t.Errorf("%s (DirectFree=%v): replay = %d, %v; want event 3 rejected as a freed ref",
					tc.name, cfg.DirectFree, n, err)
			}
			r, err := NewTraceReader(bytes.NewReader(encode(t, TraceHeader{}, events, binaryWriter)))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ReplayStreamStats(traceSystem(t, cfg), NewStreamingSource(r, 2)); err == nil {
				t.Errorf("%s (DirectFree=%v): streamed replay accepted it", tc.name, cfg.DirectFree)
			}
		}
	}
}

func TestReplayRejectsOversizedMalloc(t *testing.T) {
	// A trace malloc too large for any heap fails its event instead of
	// wrapping to a small allocation.
	sys := traceSystem(t, core.Config{})
	n, err := replay(sys, []TraceEvent{{Op: EvMalloc, Size: 64}, {Op: EvMalloc, Size: math.MaxUint64}})
	if n != 1 || !errors.Is(err, alloc.ErrOOM) {
		t.Errorf("replay = %d, %v; want event 1 failing with alloc.ErrOOM", n, err)
	}
}
