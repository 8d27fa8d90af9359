package workload

import (
	"io"

	"repro/internal/core"
	"repro/internal/revoke"
)

// Incremental streamed replay, the one path every trace replays through: a
// campaign's trace job (RunStream), `cherivoke replay`, and the live
// firehose, which needs the numbers *while* the stream is still arriving.
// IncrementalReplay applies one window at a time and keeps a StreamStats
// snapshot that is exact after every window — not an estimate — because
// each accumulation step (per-event census counters, per-sweep revoke.Stats
// folds in report order, end-state snapshots from the system) is independent
// of where the window boundaries fall. Folding a trace through windows of 1,
// DefaultWindow, or any other size therefore yields byte-identical final
// StreamStats (TestIncrementalReplayWindowInvariance), which is what lets a
// live session's accumulated stats be reconciled against a post-hoc replay
// of the spooled bytes byte-for-byte.

// StreamStats is the exact accumulated state of a streamed replay after
// some prefix of the trace. Counters count the applied events; the sweep
// fields fold every completed revocation's revoke.Stats in sweep order; the
// gauge-like fields (heap, live, quarantine, timing decomposition) snapshot
// the system's state after the last applied window. JSON field names are
// stable: the live reconciliation contract compares marshalled bytes.
type StreamStats struct {
	Events     uint64 `json:"events"`
	Mallocs    uint64 `json:"mallocs"`
	Plants     uint64 `json:"plants"`
	Frees      uint64 `json:"frees"`
	FreedBytes uint64 `json:"freed_bytes"`

	Sweeps      uint64       `json:"sweeps"`
	CapsRevoked uint64       `json:"caps_revoked"`
	Sweep       revoke.Stats `json:"sweep"`

	HeapBytes       uint64 `json:"heap_bytes"`
	LiveBytes       uint64 `json:"live_bytes"`
	QuarantineBytes uint64 `json:"quarantine_bytes"`
	PeakFootprint   uint64 `json:"peak_footprint"`

	// Simulated-time decomposition, as accumulated by the system.
	QuarantineSeconds float64 `json:"quarantine_seconds"`
	ShadowSeconds     float64 `json:"shadow_seconds"`
	SweepSeconds      float64 `json:"sweep_seconds"`
}

// IncrementalReplay applies a streamed trace to a system window by window,
// maintaining an exact StreamStats between windows. It is the engine under
// ReplayStreamStats and RunStream and the live firehose's analyzer. Not safe for concurrent
// use; Stats returns a copy, so the caller may publish snapshots freely.
type IncrementalReplay struct {
	sys     *core.System
	st      replayState
	stats   StreamStats
	reports int // sys.Reports() entries already folded into stats
}

// NewIncrementalReplay returns a replay accumulator over sys. The system
// must be fresh (no prior activity): the accumulator snapshots absolute
// counters from it.
func NewIncrementalReplay(sys *core.System) *IncrementalReplay {
	return &IncrementalReplay{sys: sys}
}

// ApplyWindow replays one window of events and brings the stats snapshot up
// to date. On an event error the failing event is not counted and the
// accumulator must not be used further.
func (ir *IncrementalReplay) ApplyWindow(win []TraceEvent) error {
	for _, ev := range win {
		if err := ir.st.apply(ir.sys, int(ir.stats.Events), ev); err != nil {
			return err
		}
		ir.stats.Events++
		switch ev.Op {
		case EvMalloc:
			ir.stats.Mallocs++
		case EvPlant:
			ir.stats.Plants++
		case EvFree:
			ir.stats.Frees++
			ir.stats.FreedBytes += ir.st.caps.at(ev.Ref).Len()
		}
	}
	ir.absorb()
	return nil
}

// absorb folds sweeps completed since the last window and refreshes the
// end-state snapshot fields.
func (ir *IncrementalReplay) absorb() {
	reports := ir.sys.Reports()
	for ; ir.reports < len(reports); ir.reports++ {
		ir.stats.Sweep.Add(reports[ir.reports].Sweep)
	}
	st := ir.sys.Stats()
	ir.stats.Sweeps = st.Sweeps
	ir.stats.CapsRevoked = st.CapsRevoked
	ir.stats.QuarantineSeconds = st.QuarantineSeconds
	ir.stats.ShadowSeconds = st.ShadowSeconds
	ir.stats.SweepSeconds = st.SweepSeconds
	ir.stats.HeapBytes = ir.sys.HeapBytes()
	ir.stats.LiveBytes = ir.sys.LiveBytes()
	ir.stats.QuarantineBytes = ir.sys.QuarantineBytes()
	// The footprint never shrinks, so its value now is the peak: the
	// same figure Run reports for the run that recorded the trace.
	ir.stats.PeakFootprint = ir.sys.MemoryFootprint()
}

// Stats returns the accumulated snapshot: exact for the events applied so
// far.
func (ir *IncrementalReplay) Stats() StreamStats { return ir.stats }

// ReplayStreamStats drains src through an IncrementalReplay and returns the
// final stats — the post-hoc form of the live firehose's accumulation, and
// the reference side of its reconciliation check.
func ReplayStreamStats(sys *core.System, src *StreamingSource) (StreamStats, error) {
	ir := NewIncrementalReplay(sys)
	for {
		win, err := src.NextWindow()
		if err == io.EOF {
			return ir.Stats(), nil
		}
		if err != nil {
			return ir.Stats(), err
		}
		if err := ir.ApplyWindow(win); err != nil {
			return ir.Stats(), err
		}
	}
}
