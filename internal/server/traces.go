package server

import (
	"errors"
	"fmt"
	"net/http"
	"os"
	"sync"

	"repro/internal/workload"
)

// traceStoreState is the lazily created content-addressed trace store
// behind the /traces endpoints and TraceRef resolution.
type traceStoreState struct {
	once sync.Once
	st   *workload.Store
	err  error
}

// traceStore returns the server's trace store, creating it on first use:
// at Options.TraceDir when configured, otherwise in a fresh temporary
// directory (uploads then live for the process lifetime, like the rest of
// the in-memory campaign registry).
func (s *Server) traceStore() (*workload.Store, error) {
	s.traces.once.Do(func() {
		dir := s.opts.TraceDir
		if dir == "" {
			dir, s.traces.err = os.MkdirTemp("", "cherivoke-traces-")
			if s.traces.err != nil {
				return
			}
		}
		s.traces.st, s.traces.err = workload.NewStore(dir)
	})
	if s.traces.err != nil {
		return nil, fmt.Errorf("trace store unavailable: %w", s.traces.err)
	}
	return s.traces.st, nil
}

// handleTraceUpload implements POST /traces: the request body is the trace
// stream itself (binary or NDJSON — chunked uploads stream straight to
// disk), validated end to end and filed by content hash.
func (s *Server) handleTraceUpload(w http.ResponseWriter, r *http.Request) {
	store, err := s.traceStore()
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	info, err := store.Put(&countingReader{r: r.Body, c: s.metrics.traceRx})
	if err != nil {
		// Only a rejected trace is the client's fault; spool/filing
		// failures (disk full, unwritable dir) are ours.
		code := http.StatusInternalServerError
		if errors.Is(err, workload.ErrInvalidTrace) {
			code = http.StatusBadRequest
		}
		httpError(w, code, err.Error())
		return
	}
	writeJSON(w, http.StatusCreated, TraceResponse{TraceInfo: info, URL: "/traces/" + info.Hash})
}

// TraceResponse is the /traces representation of one stored trace.
type TraceResponse struct {
	workload.TraceInfo
	URL string `json:"url"`
}

// handleTraceList implements GET /traces.
func (s *Server) handleTraceList(w http.ResponseWriter, _ *http.Request) {
	store, err := s.traceStore()
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	infos, err := store.List()
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	out := make([]TraceResponse, len(infos))
	for i, info := range infos {
		out[i] = TraceResponse{TraceInfo: info, URL: "/traces/" + info.Hash}
	}
	writeJSON(w, http.StatusOK, out)
}

// handleTraceInfo implements GET /traces/{hash}; the path accepts a full
// hash or a unique prefix of at least six characters.
func (s *Server) handleTraceInfo(w http.ResponseWriter, r *http.Request) {
	store, err := s.traceStore()
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	info, err := store.Stat(r.PathValue("hash"))
	if err != nil {
		httpError(w, http.StatusNotFound, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, TraceResponse{TraceInfo: info, URL: "/traces/" + info.Hash})
}
