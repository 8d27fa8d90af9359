// Package livetrace turns the upload-then-run trace model into
// run-while-ingesting: a long-lived connection streams an allocator trace
// (binary CVTR or NDJSON) into the server, the stream is replayed through
// StreamingSource windows as it arrives, and incremental revocation/traffic
// stats are published after every window — continuous revocation analytics
// on live allocator traffic rather than post-hoc files.
//
// The contract has three legs (docs/LIVE.md):
//
//   - Backpressure, never loss: a session reads, decodes and analyses its
//     stream a window at a time on the connection's goroutine, and reads
//     the connection only to decode the next window. While a window is
//     analysed nothing drains the socket, so TCP flow control pushes back
//     on the producer. No window is ever queued or dropped
//     (cherivoke_live_dropped_windows_total is always zero by
//     construction).
//   - Reconciliation: on clean end of stream the spooled bytes are filed in
//     the content-addressed trace store and replayed from scratch; the
//     fresh replay's StreamStats must equal the live session's accumulated
//     stats byte-for-byte (their canonical JSON encodings are compared).
//     Only then is the session marked done.
//   - Clean teardown: client disconnect, idle timeout, corrupt input,
//     analysis failure and server shutdown all end the session in a
//     terminal failed state with no goroutine left behind and no partial
//     stats published as final.
package livetrace

import (
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/quarantine"
	"repro/internal/workload"
)

// AnalysisConfig is the CHERIvoke system configuration live sessions replay
// against: the paper's defaults (25% quarantine fraction, vectorised sweep
// kernel, CapDirty paging, laundering) — the same configuration `cherivoke
// replay` uses, so a live session's stats are directly comparable to a
// post-hoc replay of the same trace.
func AnalysisConfig() core.Config {
	return core.Config{
		Policy: quarantine.Policy{Fraction: campaign.DefaultFraction, MinBytes: campaign.DefaultQuarantineMinBytes},
		Revoke: campaign.PaperVariant().Revoke,
	}
}

// Session lifecycle states.
const (
	// StateRunning marks a session still ingesting its stream.
	StateRunning = "running"
	// StateDone marks a session whose stream ended cleanly, was filed in
	// the trace store, and reconciled byte-identically with a post-hoc
	// replay.
	StateDone = "done"
	// StateFailed marks a session torn down before a clean end of stream
	// (disconnect, corrupt input, idle timeout, shutdown) or whose
	// reconciliation failed; its partial stats are never published as
	// final.
	StateFailed = "failed"
)

// Info is the externally visible state of one live session (the /live JSON
// representation; field names are part of the HTTP API).
type Info struct {
	ID     string `json:"id"`
	Name   string `json:"name,omitempty"`   // trace header's benchmark name
	Format string `json:"format,omitempty"` // binary | ndjson
	State  string `json:"state"`
	Error  string `json:"error,omitempty"`

	Window  int    `json:"window"`  // StreamingSource window (events)
	Windows uint64 `json:"windows"` // windows analyzed so far
	Events  uint64 `json:"events"`  // events analyzed so far
	Bytes   uint64 `json:"bytes"`   // bytes read from the connection

	// TraceHash and Reconciled are set only on a done session: the stored
	// trace's content address, and the reconciliation verdict (always true
	// for done sessions — failure fails the session instead).
	TraceHash  string `json:"trace_hash,omitempty"`
	Reconciled bool   `json:"reconciled"`

	// Stats is the final reconciled accumulation, set only once the
	// session is done. Running sessions expose their incremental stats via
	// SSE frames, never here — a partial accumulation must not be read as
	// a final result.
	Stats *workload.StreamStats `json:"stats,omitempty"`

	Created  time.Time  `json:"created"`
	Finished *time.Time `json:"finished,omitempty"`
}

// Frame is one incremental stats snapshot, published to subscribers after
// each analyzed window. Seq increases by one per analyzed window of its
// session; a subscriber may miss frames (slow consumers have frames
// coalesced, never windows), but the Seq values it sees are strictly
// increasing and every frame's Stats is an exact prefix accumulation.
type Frame struct {
	Seq     uint64               `json:"seq"`
	Windows uint64               `json:"windows"`
	Events  uint64               `json:"events"`
	Bytes   uint64               `json:"bytes"`
	Stats   workload.StreamStats `json:"stats"`
}
