package server

import (
	"encoding/json"
	"net/http"
	"strconv"

	"repro/internal/livetrace"
)

// handleLiveIngest implements POST /live: the request body is an indefinite
// binary/NDJSON trace stream, replayed in bounded windows as it arrives.
// The response header — carrying the session ID in X-Live-Session and
// Location — is written and flushed immediately, so the producer (or
// anything watching it) can follow GET /live/{id}/events while the stream
// is still running; the response body is the session's final Info JSON,
// written when the stream ends. Clients judge success by .state == "done",
// not the status code, which is committed long before the outcome is known.
func (s *Server) handleLiveIngest(w http.ResponseWriter, r *http.Request) {
	window := 0
	if q := r.URL.Query().Get("window"); q != "" {
		var err error
		window, err = strconv.Atoi(q)
		if err != nil || window <= 0 {
			httpError(w, http.StatusBadRequest, "window must be a positive integer")
			return
		}
	}
	sess, err := s.live.Begin(window)
	if err != nil {
		httpError(w, http.StatusServiceUnavailable, err.Error())
		return
	}

	// Interleaving body reads with response writes needs HTTP/1
	// full-duplex; without it (exotic transports) the early header is
	// skipped and the client learns the ID only from the final body.
	rc := http.NewResponseController(w)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Live-Session", sess.ID())
	w.Header().Set("Location", "/live/"+sess.ID())
	early := rc.EnableFullDuplex() == nil
	if early {
		w.WriteHeader(http.StatusOK)
		_ = rc.Flush()
	}

	// Run blocks on the handler's goroutine until the stream ends — the
	// session's lifetime is the connection's. The error is already folded
	// into the session's terminal Info; the response reports that.
	_ = sess.Run(r.Context(), r.Body, rc.SetReadDeadline)
	if early {
		// The status line is long gone; only the body remains.
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(sess.Info())
		return
	}
	writeJSON(w, http.StatusOK, sess.Info())
}

// handleLiveList implements GET /live.
func (s *Server) handleLiveList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.live.List())
}

// handleLiveInfo implements GET /live/{id}.
func (s *Server) handleLiveInfo(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.live.Get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "unknown live session")
		return
	}
	writeJSON(w, http.StatusOK, sess.Info())
}

// handleLiveEvents streams a live session's incremental stats as
// server-sent events: an initial "info" snapshot, one "stats" frame per
// analyzed window (slow consumers have frames coalesced, never reordered),
// and a final "info" event on the terminal transition — every stream ends
// with one, mirroring the campaign SSE contract.
func (s *Server) handleLiveEvents(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.live.Get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "unknown live session")
		return
	}
	streamEvents(w, r, sess.Subscribe,
		func() []byte { return event("info", sess.Info()) },
		func(f livetrace.Frame) []byte { return event("stats", f) })
}
