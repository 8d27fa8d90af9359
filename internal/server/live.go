package server

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"sync"

	"repro/internal/livetrace"
)

// liveState is the lazily created live-session manager behind the /live
// endpoints, mirroring traceStoreState: the manager (and the trace store it
// files into) exists only once the first live request arrives.
type liveState struct {
	once sync.Once
	mgr  *livetrace.Manager
	err  error
}

// liveManager returns the server's live-session manager, creating it over
// the trace store on first use.
func (s *Server) liveManager() (*livetrace.Manager, error) {
	s.live.once.Do(func() {
		store, err := s.traceStore()
		if err != nil {
			s.live.err = err
			return
		}
		s.live.mgr = livetrace.NewManager(livetrace.Config{
			Store:       store,
			IdleTimeout: s.opts.LiveIdleTimeout,
			Metrics:     s.reg,
		})
	})
	if s.live.err != nil {
		return nil, s.live.err
	}
	if s.live.mgr == nil {
		// Close settled the once without creating a manager.
		return nil, errors.New("live ingestion unavailable: server closing")
	}
	return s.live.mgr, nil
}

// closeLive tears down the live manager if one was created. Settling the
// once first makes the shutdown race-free: either a concurrent first
// request finished creating the manager (and we close it), or creation is
// foreclosed and later requests get a clean error.
func (s *Server) closeLive() {
	s.live.once.Do(func() {})
	if s.live.mgr != nil {
		s.live.mgr.Close()
	}
}

// handleLiveIngest implements POST /live: the request body is an indefinite
// binary/NDJSON trace stream, replayed in bounded windows as it arrives.
// The response header — carrying the session ID in X-Live-Session and
// Location — is written and flushed immediately, so the producer (or
// anything watching it) can follow GET /live/{id}/events while the stream
// is still running; the response body is the session's final Info JSON,
// written when the stream ends. Clients judge success by .state == "done",
// not the status code, which is committed long before the outcome is known.
func (s *Server) handleLiveIngest(w http.ResponseWriter, r *http.Request) {
	mgr, err := s.liveManager()
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	window := 0
	if q := r.URL.Query().Get("window"); q != "" {
		window, err = strconv.Atoi(q)
		if err != nil || window <= 0 {
			httpError(w, http.StatusBadRequest, "window must be a positive integer")
			return
		}
	}
	sess, err := mgr.Begin(window)
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
	mgr, err := s.liveManager()
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, mgr.List())
}

// handleLiveInfo implements GET /live/{id}.
func (s *Server) handleLiveInfo(w http.ResponseWriter, r *http.Request) {
	mgr, err := s.liveManager()
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	sess, ok := mgr.Get(r.PathValue("id"))
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
	mgr, err := s.liveManager()
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	sess, ok := mgr.Get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "unknown live session")
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	// Subscribe before the snapshot so a terminal transition landing in
	// between is still delivered (as the channel close).
	ch, cancel, live := sess.Subscribe()
	if live {
		defer cancel()
	}
	if _, err := w.Write(event("info", sess.Info())); err != nil {
		return
	}
	flusher.Flush()
	if !live {
		return // already terminal; the info event said so
	}
	for {
		select {
		case frame, open := <-ch:
			if !open {
				// Terminal: emit the final state directly so every
				// stream ends with it even if frames were coalesced.
				_, _ = w.Write(event("info", sess.Info()))
				flusher.Flush()
				return
			}
			if _, err := w.Write(event("stats", frame)); err != nil {
				return
			}
			flusher.Flush()
		case <-r.Context().Done():
			return
		}
	}
}
