// Package workload defines the 17 benchmark workload profiles of the
// paper's evaluation (SPEC CPU2006 subset + ffmpeg), a deterministic
// synthetic allocation-trace generator that drives the CHERIvoke system to
// match each profile's measured deallocation behaviour, and the trace
// pipeline that records, encodes, stores, and replays those runs.
//
// # Profiles and the generator
//
// The profiles carry two kinds of numbers:
//
//   - measured values from Table 2 of the paper (pages-with-pointers %,
//     free rate in MiB/s, frees per second): these are reproduction targets
//     — the generator is parameterised so the replayed trace reproduces
//     them, and the Table 2 experiment reports generated-vs-paper values;
//
//   - synthetic parameters the paper does not publish (live-heap size,
//     lifetime mixing, cache-reuse factor): these are chosen to be
//     plausible for the SPEC reference inputs and are documented here; the
//     figures' *shapes* depend on the Table 2 quantities, not on these.
//
// Since the real benchmarks use multi-GiB heaps that would be wasteful to
// simulate tag-for-tag, the runner scales each workload's live heap down
// (keeping free rate and densities fixed). §6.1.3's analytic model shows
// the runtime overhead FreeRate·PointerDensity/(ScanRate·QuarantineFraction)
// is invariant under this scaling: sweeps become proportionally smaller and
// more frequent.
//
// # Traces and streaming
//
// A run's exact event sequence (malloc / plant / free, referencing
// allocations by birth order) is streamed through a TraceWriter as it is
// generated (Options.Stream). Two versioned on-wire encodings exist — a
// compact binary format and NDJSON, specified in docs/TRACE_FORMAT.md —
// and NewTraceReader sniffs which one a stream holds, rejecting anything
// else.
//
// Every replay takes one path: a StreamingSource hands a streamed trace out
// in fixed-size event windows, so the peak event buffer is the window size
// no matter how large the trace, and IncrementalReplay applies them.
// ReplayStreamStats drains a source into its StreamStats, RunStream adds
// Run's measurements on top, and the live firehose applies windows as they
// arrive. A replay applies exactly the recorded event sequence, so the
// sweeps it triggers produce revoke.Stats byte-identical to the recording
// run's.
//
// Store is the content-addressed on-disk trace store behind the server's
// /traces endpoints and campaign TraceRef resolution.
package workload
