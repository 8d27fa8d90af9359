// Package campaign is the experiment-campaign orchestrator: it expands a
// declarative parameter-sweep specification (workload profiles × system
// variants × quarantine fractions × heap scales × seeds) into an ordered
// list of jobs, runs them on a bounded worker pool — one isolated
// core.System per job, plus, for a Spec.Baseline job, the direct-free
// system its events feed as they happen — and aggregates the per-job
// results into artifacts (JSON/CSV) and summary statistics.
//
// Determinism is the contract: job expansion order is fixed, every job is
// self-seeded and shares no state with its siblings, and results are
// aggregated by job ID, so a campaign's output is byte-identical whether it
// runs on one worker or many. The worker pool only changes wall-clock time,
// and a variant's sweep shard width only the priced sweep time
// (revoke.Config.Shards); Jobs, and every job run, reject a width outside
// [0, revoke.MaxShards] or an unknown sweep kernel.
// The same contract holds across processes: ExecuteJob is the exported
// single-job unit a remote worker runs on behalf of a coordinator, and
// RunOptions.Runner lets internal/engine's dispatcher route each job to
// such a worker without the pool — or the artifacts — noticing.
//
// Jobs draw their events from one of two sources. By default each job
// generates its workload from its profile (workload.Run). A spec with a
// TraceRef instead streams a recorded trace — resolved through
// RunOptions.Traces, typically a content hash against the server's
// workload.Store — through every job in bounded event windows
// (workload.RunStream, over the one replay path, workload.IncrementalReplay),
// so multi-GiB traces and externally produced workloads drive campaigns
// without being materialised; artifacts record the trace's content hash.
//
// internal/experiments builds every figure and table sweep of the paper's
// evaluation on top of this package, and internal/server exposes it over
// HTTP.
package campaign
