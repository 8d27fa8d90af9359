package server

import (
	"crypto/subtle"
	"encoding/json"
	"fmt"
	"net/http"

	"repro/internal/campaign"
	"repro/internal/engine"
)

// requireAuth guards an internal-API handler with the configured bearer
// token. An empty token leaves the endpoint open — the documented
// trusted-network mode; production deployments set -auth-token on every
// process.
func (s *Server) requireAuth(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.opts.AuthToken != "" {
			got := []byte(r.Header.Get("Authorization"))
			want := []byte("Bearer " + s.opts.AuthToken)
			if subtle.ConstantTimeCompare(got, want) != 1 {
				httpError(w, http.StatusUnauthorized, "missing or invalid internal API token")
				return
			}
		}
		h(w, r)
	}
}

// handleInternalJob implements the worker half of the distribution layer:
// POST /internal/jobs executes one expanded job and returns its JobResult
// under the coordinator's JobKey. The worker recomputes the key — resolving
// any trace ref against its own trace store — and refuses a mismatch: a
// fleet whose workers hold different bytes under the same trace ref must
// fail loudly, not dedup wrongly. Job-level failures are a 200 with
// Result.Error set; error statuses mean "this worker could not run the job"
// and make the coordinator reassign it.
func (s *Server) handleInternalJob(w http.ResponseWriter, r *http.Request) {
	var req engine.JobRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("decoding job request: %v", err))
		return
	}
	var traces campaign.TraceOpener
	var traceHash string
	if req.Job.TraceRef != "" {
		store, err := s.traceStore()
		if err != nil {
			httpError(w, http.StatusInternalServerError, err.Error())
			return
		}
		tr, hash, err := store.OpenTrace(req.Job.TraceRef)
		if err != nil {
			// The coordinator resolved this ref against its own store;
			// this worker simply does not hold the trace. 404 sends
			// the job elsewhere (ultimately to the coordinator's local
			// fallback, which does hold it).
			httpError(w, http.StatusNotFound, fmt.Sprintf("trace %q not available on this worker: %v", req.Job.TraceRef, err))
			return
		}
		tr.Close()
		traces, traceHash = store, hash
	}
	if key := engine.JobKey(req.Spec, req.Job, traceHash); key != req.Key {
		httpError(w, http.StatusConflict, fmt.Sprintf("job key mismatch: coordinator sent %.12s, this worker computes %.12s (diverging trace bytes or version skew)", req.Key, key))
		return
	}
	// Read-through: a worker with a persistent store consults it before
	// executing. Over a shared backend the store holds every sibling's
	// finished jobs, so a job is computed at most once fleet-wide no
	// matter which worker each coordinator routes it to. Results are
	// deterministic and keyed by content hash, so a served result is
	// byte-identical to a computed one.
	if s.hasStore {
		if jr, ok := s.engine.LookupJob(req.Key); ok {
			s.metrics.readthrough.Inc()
			writeJSON(w, http.StatusOK, engine.JobResponse{Key: req.Key, Result: jr})
			return
		}
	}
	jr := campaign.ExecuteJob(req.Spec, req.Job, traces)
	s.metrics.internal.Inc()
	if s.hasStore {
		s.engine.SaveJob(req.Key, jr)
	}
	writeJSON(w, http.StatusOK, engine.JobResponse{Key: req.Key, Result: jr})
}
