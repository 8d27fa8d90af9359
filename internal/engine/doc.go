// Package engine is the store-backed campaign execution layer between
// internal/campaign (the deterministic job runner) and internal/server (the
// HTTP adapter). It owns two seams:
//
//   - Store: persistence for submitted campaigns, their finished Result
//     artifacts, and individual JobResults keyed by content hash, plus the
//     job-lease primitives concurrent engines coordinate through. Every
//     method but Close is written once, in a record layer that keeps the
//     tables, runs each write as a transaction against a view of them, and
//     times every operation. Its two backends supply only a write and a
//     catch-up read: MemStore keeps the tables in process memory;
//     SQLiteStore appends every record to one crash-safe log file that any
//     number of processes may share (OpenStore("sqlite:PATH")). Recovery
//     is the lone opener's act: an open that finds no other handle on the
//     file (every handle holds PATH.lock shared until Close) finalises the
//     campaigns that were running when their processes died, from their
//     stored result or as failed. No other open recovers, since a running
//     record may be a live peer's.
//
//   - Engine: the execution front. It keeps in memory only the campaigns
//     it is running; every other campaign — finished here, from before a
//     restart, or submitted by a peer sharing the store — is read from the
//     store, on every backend.
//
//     Every job is keyed by JobKey — a SHA-256 over the canonical
//     serialisation of everything that determines its result (profile,
//     variant, fraction, seed, heap scale, workload bounds, traffic model,
//     image-sweep plan, and the full content hash of any replayed trace) —
//     so resubmitted or overlapping campaigns reuse stored JobResults
//     instead of re-running them. Because campaign artifacts are
//     deterministic, a warm-cache rerun yields byte-identical JSON and CSV
//     artifacts to a cold run; the cache changes cost, never results.
//
//   - Runner: the distribution seam. The engine runs every cache-miss job
//     under a store lease on its configured Runner, with the job's key, and
//     publishes each successful result — the one way a job result is
//     written. LocalRunner executes in-process (the default); RemoteRunner
//     forwards one job to a worker process's internal HTTP API; Dispatcher
//     implements Runner over a whole fleet — jobs shard across workers by
//     JobKey hash with bounded per-worker dispatch, failed workers are
//     marked down and their jobs reassigned, and local execution is the
//     last resort, so campaigns always complete. Because the routing key is
//     the dedup key and workers execute the same campaign.ExecuteJob a
//     local pool would, artifacts are byte-identical at any worker count
//     and the fleet shares one deduplicated job store.
//
// The engine deliberately excludes from the key everything that only
// schedules work: worker counts, Spec.TraceWindow, and the spelling of a trace ref (a prefix and the full
// hash of the same trace share a key).
package engine
