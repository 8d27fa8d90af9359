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

func recordedRun(t *testing.T) (*Trace, Result) {
	t.Helper()
	p, _ := ByName("omnetpp")
	sys := traceSystem(t, core.Config{Revoke: revoke.Config{UseCapDirty: true}})
	var tr Trace
	res, err := Run(sys, p, Options{Seed: 11, MinSweeps: 2, MaxLiveBytes: 2 << 20, Record: &tr})
	if err != nil {
		t.Fatal(err)
	}
	return &tr, res
}

func TestRecordCapturesRun(t *testing.T) {
	tr, res := recordedRun(t)
	if tr.Name != "omnetpp" || tr.Seed != 11 {
		t.Errorf("trace header: %q seed %d", tr.Name, tr.Seed)
	}
	var mallocs, frees, plants int
	for _, ev := range tr.Events {
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
	tr, res := recordedRun(t)
	sys := traceSystem(t, core.Config{Revoke: revoke.Config{UseCapDirty: true}})
	if _, err := Replay(sys, tr); err != nil {
		t.Fatalf("Replay: %v", err)
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
	tr, _ := recordedRun(t)

	direct := traceSystem(t, core.Config{DirectFree: true})
	if _, err := Replay(direct, tr); err != nil {
		t.Fatalf("direct replay: %v", err)
	}
	if direct.Stats().Sweeps != 0 {
		t.Error("direct replay swept")
	}

	typed := traceSystem(t, core.Config{DirectFree: true, Alloc: alloc.Options{TypedReuse: true}})
	if _, err := Replay(typed, tr); err != nil {
		t.Fatalf("typed replay: %v", err)
	}
	// Typed reuse cannot be more compact than the classic allocator.
	if typed.HeapBytes() < direct.HeapBytes() {
		t.Errorf("typed heap %d < classic heap %d", typed.HeapBytes(), direct.HeapBytes())
	}
}

func TestReplayRejectsCorruptTraces(t *testing.T) {
	sys := traceSystem(t, core.Config{})
	bad := []*Trace{
		{Events: []TraceEvent{{Op: EvFree, Ref: 0}}},                                                 // free before malloc
		{Events: []TraceEvent{{Op: EvMalloc, Size: 64}, {Op: EvPlant, Ref: 5}}},                      // wild ref
		{Events: []TraceEvent{{Op: 'z'}}},                                                            // unknown op
		{Events: []TraceEvent{{Op: EvMalloc, Size: 64}, {Op: EvFree, Ref: 0}, {Op: EvFree, Ref: 0}}}, // double free
	}
	for i, tr := range bad {
		if _, err := Replay(sys, tr); err == nil {
			t.Errorf("corrupt trace %d accepted", i)
		}
	}
}

// TestReplayRejectsFreedRefAfterReuse: on a direct-free system the second
// malloc reuses the first one's address, so an address check alone would
// let a second free of ref 0 release ref 1's object. Every replay path
// must reject it, and a plant through a freed ref, at that event.
func TestReplayRejectsFreedRefAfterReuse(t *testing.T) {
	reuse := []TraceEvent{{Op: EvMalloc, Size: 64}, {Op: EvFree, Ref: 0}, {Op: EvMalloc, Size: 64}}
	for _, tc := range []struct {
		name string
		last TraceEvent
	}{
		{"double free", TraceEvent{Op: EvFree, Ref: 0}},
		{"plant after free", TraceEvent{Op: EvPlant, Ref: 0}},
	} {
		tr := &Trace{Events: append(append([]TraceEvent(nil), reuse...), tc.last)}
		for _, cfg := range []core.Config{{DirectFree: true}, {}} {
			n, err := Replay(traceSystem(t, cfg), tr)
			if n != 3 || err == nil || !strings.Contains(err.Error(), "ref 0 was already freed") {
				t.Errorf("%s (DirectFree=%v): Replay = %d, %v; want event 3 rejected as a freed ref",
					tc.name, cfg.DirectFree, n, err)
			}
			r, err := NewTraceReader(bytes.NewReader(encode(t, tr, binaryWriter)))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ReplayStream(traceSystem(t, cfg), NewStreamingSource(r, 2)); err == nil {
				t.Errorf("%s (DirectFree=%v): ReplayStream accepted it", tc.name, cfg.DirectFree)
			}
		}
	}
}

func TestReplayRejectsOversizedMalloc(t *testing.T) {
	// A trace malloc too large for any heap fails its event instead of
	// wrapping to a small allocation.
	sys := traceSystem(t, core.Config{})
	tr := &Trace{Events: []TraceEvent{{Op: EvMalloc, Size: 64}, {Op: EvMalloc, Size: math.MaxUint64}}}
	n, err := Replay(sys, tr)
	if n != 1 || !errors.Is(err, alloc.ErrOOM) {
		t.Errorf("Replay = %d, %v; want event 1 failing with alloc.ErrOOM", n, err)
	}
}
