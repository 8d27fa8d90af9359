package server

import (
	"errors"
	"net/http"

	"repro/internal/workload"
)

// handleTraceUpload implements POST /traces: the request body is the trace
// stream itself (binary or NDJSON — chunked uploads stream straight to
// disk), validated end to end and filed by content hash.
func (s *Server) handleTraceUpload(w http.ResponseWriter, r *http.Request) {
	info, err := s.traces.Put(&countingReader{r: r.Body, c: s.metrics.traceRx})
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
	infos, err := s.traces.List()
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
	info, err := s.traces.Stat(r.PathValue("hash"))
	if err != nil {
		httpError(w, http.StatusNotFound, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, TraceResponse{TraceInfo: info, URL: "/traces/" + info.Hash})
}
