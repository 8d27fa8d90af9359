// Package server is the HTTP adapter over internal/engine: it accepts
// campaign specs over POST, maps engine state to status codes, streams
// per-job progress over server-sent events, serves the aggregated JSON/CSV
// artifacts and the paper's figure tables, and ingests workload traces into
// a content-addressed store that campaign specs reference by hash
// (Spec.TraceRef). All campaign state lives in the engine's Store: with
// Options.Store naming a sqlite: file, campaigns, artifacts, and the
// deduplicating job-result cache survive restarts, and resubmitted specs
// are answered without re-executing a single job.
//
//	POST   /campaigns              submit a campaign        -> 202 + id
//	GET    /campaigns              list statuses (submission order)
//	GET    /campaigns/{id}         one campaign's status
//	GET    /campaigns/{id}/results artifacts (?format=csv)  -> 409 until done
//	GET    /campaigns/{id}/events  SSE progress stream
//	DELETE /campaigns/{id}         cancel a running campaign
//	POST   /traces                 upload a trace (streamed) -> 201 + hash
//	GET    /traces                 list stored traces
//	GET    /traces/{hash}          one trace's metadata
//	GET    /figures                list servable figures
//	GET    /figures/{name}         figure rows (?quick=1), engine-resolved
//	GET    /healthz                liveness probe (+ fleet state on a coordinator)
//	POST   /internal/jobs          execute one job (worker mode, bearer auth)
//
// The server also scales past one process: Options.Worker exposes the
// internal job-execution API so this process can execute single jobs for a
// coordinator, and Options.WorkerURLs makes this process the coordinator —
// its engine shards campaign jobs across the listed workers by job-key
// hash (engine.Dispatcher), with retry-with-reassignment on failure and
// local fallback, while all state and the fleet-shared dedup store stay
// here. Topologies and failure semantics: docs/DEPLOYMENT.md.
//
// The full request/response reference, with curl examples, is
// docs/API.md.
package server
