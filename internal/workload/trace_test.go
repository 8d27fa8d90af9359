package workload

import (
	"bytes"
	"errors"
	"math"
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

func TestTraceJSONRoundTrip(t *testing.T) {
	tr, _ := recordedRun(t)
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTraceJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != tr.Name || got.Seed != tr.Seed || len(got.Events) != len(tr.Events) {
		t.Fatalf("round trip: %q/%d/%d vs %q/%d/%d",
			got.Name, got.Seed, len(got.Events), tr.Name, tr.Seed, len(tr.Events))
	}
	for i := range got.Events {
		if got.Events[i] != tr.Events[i] {
			t.Fatalf("event %d differs", i)
		}
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
