package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"os"
	"time"

	"repro/internal/campaign"
	"repro/internal/engine"
	"repro/internal/livetrace"
	"repro/internal/obs"
	"repro/internal/workload"
)

// Options configures a Server.
type Options struct {
	// Workers is the default per-campaign worker-pool width for requests
	// that do not specify one (0 = GOMAXPROCS).
	Workers int

	// TraceDir roots the content-addressed trace store behind the
	// /traces and /live endpoints; New creates it if missing. Empty means
	// a temporary directory that New creates and Close removes (uploads
	// survive for the server's lifetime only).
	TraceDir string

	// StateDir roots the engine's persistent state (campaign records,
	// result artifacts, the deduplicating job-result store) in the store
	// file StateDir/state.cvk (see engine.OpenStateDir). The server owns
	// the directory: it holds the directory's exclusive advisory lock until
	// Close, so a second server pointed at it fails loudly, and it runs
	// restart recovery. Empty keeps everything in memory, like the
	// pre-engine server.
	StateDir string

	// Store selects the engine's store by spec — "mem:" or "sqlite:PATH"
	// (see engine.OpenStore). It supersedes StateDir when both are set.
	// The sqlite: backend is shared: any number of coordinators and
	// workers may point at the same path, job execution is deduplicated
	// fleet-wide through store leases, and recovery is skipped on open (a
	// peer's running campaign is live, not interrupted).
	Store string

	// Worker exposes the internal job-execution API (POST
	// /internal/jobs): this process will execute single jobs on behalf
	// of a coordinator.
	Worker bool

	// WorkerURLs lists worker base URLs ("http://host:port"). Non-empty
	// makes this process a coordinator: campaign jobs are sharded across
	// the listed workers by JobKey hash, with retry-with-reassignment on
	// worker failure and local execution as the last resort. Empty keeps
	// all execution in-process.
	WorkerURLs []string

	// AuthToken guards the internal API: workers require it as a bearer
	// credential on /internal/* requests, and a coordinator sends it on
	// every dispatch. Empty disables the check (trusted networks only).
	AuthToken string

	// WorkerInFlight bounds concurrently dispatched jobs per worker
	// (0 = 4).
	WorkerInFlight int

	// Pprof mounts net/http/pprof under /debug/pprof. Off by default:
	// profiling endpoints expose heap contents and must be opted into.
	Pprof bool

	// LiveIdleTimeout fails a live session whose connection delivers no
	// bytes for this long (0 = livetrace's default; negative disables).
	LiveIdleTimeout time.Duration
}

// Server is a thin HTTP adapter over engine.Engine: it decodes requests,
// maps engine state to status codes, and formats artifacts and SSE frames.
// All campaign state — including what survives a restart — lives in the
// engine and its Store.
type Server struct {
	opts       Options
	traces     *workload.Store
	traceTmp   string // the temporary trace directory Close removes; empty with TraceDir
	live       *livetrace.Manager
	engine     *engine.Engine
	store      engine.Store       // the engine's store, retained for Close
	hasStore   bool               // a persistent (non-mem) store backs the engine
	dispatcher *engine.Dispatcher // nil unless Options.WorkerURLs configured
	reg        *obs.Registry
	metrics    serverMetrics
}

// States of a campaign's lifecycle (the engine's, re-exported for the HTTP
// surface).
const (
	StateRunning   = engine.StateRunning
	StateDone      = engine.StateDone
	StateFailed    = engine.StateFailed
	StateCancelled = engine.StateCancelled
)

// New returns a Server ready to serve campaigns. With Options.StateDir set
// it opens (or recovers) the disk-backed store there: campaigns submitted
// before a restart are listed with their final status, their artifacts are
// served, and resubmitted specs are answered from the job-result store
// without re-executing anything. Options.Store generalises this to the
// shared backend — several coordinators and workers over one sqlite: file
// form a fleet computing every job at most once. New fails when it cannot
// create the trace directory.
func New(opts Options) (*Server, error) {
	s := &Server{opts: opts, reg: obs.NewRegistry()}
	s.metrics = newServerMetrics(s.reg)
	dir := opts.TraceDir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "cherivoke-traces-")
		if err != nil {
			return nil, fmt.Errorf("server: creating trace directory: %w", err)
		}
		dir, s.traceTmp = tmp, tmp
	}
	traces, err := workload.NewStore(dir)
	if err != nil {
		s.removeTraceTmp()
		return nil, err
	}
	s.traces = traces
	var store engine.Store
	switch {
	case opts.Store != "":
		store, err = engine.OpenStore(opts.Store, nil)
	case opts.StateDir != "":
		store, err = engine.OpenStateDir(opts.StateDir, true, nil)
	default:
		store = engine.NewMemStore()
	}
	if err != nil {
		s.removeTraceTmp()
		return nil, err
	}
	s.store = store
	_, inMemory := store.(*engine.MemStore)
	s.hasStore = !inMemory
	engOpts := engine.Options{Workers: opts.Workers, Traces: traces, Metrics: s.reg}
	if len(opts.WorkerURLs) > 0 {
		remotes := make([]*engine.RemoteRunner, len(opts.WorkerURLs))
		for i, url := range opts.WorkerURLs {
			remotes[i] = engine.NewRemoteRunner(url, opts.AuthToken)
		}
		s.dispatcher = engine.NewDispatcher(remotes, engine.DispatcherOptions{
			Traces:   traces,
			InFlight: opts.WorkerInFlight,
			Metrics:  s.reg,
		})
		engOpts.Runner = s.dispatcher
		if engOpts.Workers == 0 {
			// Default the pool width to the fleet's in-flight capacity
			// so a coordinator keeps every worker busy instead of
			// pacing the fleet at its own GOMAXPROCS.
			engOpts.Workers = s.dispatcher.Capacity()
		}
	}
	eng, err := engine.New(store, engOpts)
	if err != nil {
		if s.dispatcher != nil {
			s.dispatcher.Close()
		}
		store.Close()
		s.removeTraceTmp()
		return nil, err
	}
	s.engine = eng
	s.live = livetrace.NewManager(livetrace.Config{
		Store:       traces,
		IdleTimeout: opts.LiveIdleTimeout,
		Metrics:     s.reg,
	})
	return s, nil
}

// Close releases the server's background resources: live trace sessions
// (each fails at its next window), the coordinator's worker health-probe loop,
// the store's file handle and state-directory lock where it has them, and
// the temporary trace directory. Other in-flight requests are unaffected.
func (s *Server) Close() {
	s.live.Close()
	if s.dispatcher != nil {
		s.dispatcher.Close()
	}
	s.store.Close()
	s.removeTraceTmp()
}

// removeTraceTmp deletes the temporary trace directory, if New made one.
func (s *Server) removeTraceTmp() {
	if s.traceTmp != "" {
		_ = os.RemoveAll(s.traceTmp) // a leftover temporary directory harms nothing
	}
}

// Metrics returns the server's metrics registry — the one every layer
// (engine, dispatcher, campaign pool, HTTP) records into. Tests and
// embedders can register their own instruments on it.
func (s *Server) Metrics() *obs.Registry {
	return s.reg
}

// Handler returns the server's route table, wrapped in the observability
// middleware (request IDs, per-route metrics, structured request logs).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.Handle("GET /metrics", s.reg.Handler())
	mux.HandleFunc("GET /dashboard", s.handleDashboard)
	mux.HandleFunc("GET /dashboard/{file...}", s.handleDashboard)
	mux.HandleFunc("POST /campaigns", s.handleSubmit)
	mux.HandleFunc("GET /campaigns", s.handleList)
	mux.HandleFunc("GET /campaigns/{id}", s.handleStatus)
	mux.HandleFunc("GET /campaigns/{id}/results", s.handleResults)
	mux.HandleFunc("GET /campaigns/{id}/events", s.handleEvents)
	mux.HandleFunc("DELETE /campaigns/{id}", s.handleCancel)
	mux.HandleFunc("POST /traces", s.handleTraceUpload)
	mux.HandleFunc("GET /traces", s.handleTraceList)
	mux.HandleFunc("GET /traces/{hash}", s.handleTraceInfo)
	mux.HandleFunc("POST /live", s.handleLiveIngest)
	mux.HandleFunc("GET /live", s.handleLiveList)
	mux.HandleFunc("GET /live/{id}", s.handleLiveInfo)
	mux.HandleFunc("GET /live/{id}/events", s.handleLiveEvents)
	mux.HandleFunc("GET /figures", s.handleFigureIndex)
	mux.HandleFunc("GET /figures/{name}", s.handleFigure)
	if s.opts.Worker {
		mux.HandleFunc("POST /internal/jobs", s.requireAuth(s.handleInternalJob))
	}
	if s.opts.Pprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return s.observe(mux)
}

// SubmitRequest is the POST /campaigns body.
type SubmitRequest struct {
	Spec campaign.Spec `json:"spec"`
	// Workers overrides the server's default pool width for this
	// campaign. It changes scheduling only, never results.
	Workers int `json:"workers,omitempty"`
}

// SubmitResponse acknowledges a submission.
type SubmitResponse struct {
	ID   string `json:"id"`
	Jobs int    `json:"jobs"`
	URL  string `json:"url"`
}

// Status is the externally visible state of one campaign.
type Status struct {
	ID         string            `json:"id"`
	Name       string            `json:"name,omitempty"`
	State      string            `json:"state"`
	JobsTotal  int               `json:"jobs_total"`
	JobsDone   int               `json:"jobs_done"`
	JobsFailed int               `json:"jobs_failed"`
	CacheHits  int               `json:"cache_hits"`
	Workers    int               `json:"workers"`
	Error      string            `json:"error,omitempty"`
	Created    time.Time         `json:"created"`
	Finished   *time.Time        `json:"finished,omitempty"`
	Summary    *campaign.Summary `json:"summary,omitempty"`
}

// statusOf maps an engine record to its HTTP representation.
func statusOf(c engine.Campaign) Status {
	st := Status{
		ID:         c.ID,
		Name:       c.Name,
		State:      c.State,
		JobsTotal:  c.JobsTotal,
		JobsDone:   c.JobsDone,
		JobsFailed: c.JobsFailed,
		CacheHits:  c.CacheHits,
		Workers:    c.Workers,
		Error:      c.Error,
		Created:    c.Created,
		Summary:    c.Summary,
	}
	if !c.Finished.IsZero() {
		f := c.Finished
		st.Finished = &f
	}
	return st
}

// handleHealthz is the liveness probe. A coordinator additionally reports
// its view of the worker fleet — per-worker state plus the full dispatch
// counters (reassignments, local fallbacks, markdowns, probe results) — so
// one curl shows how the fleet has behaved, not just who is up.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.dispatcher != nil {
		writeJSON(w, http.StatusOK, map[string]any{
			"status":   "ok",
			"workers":  s.dispatcher.WorkerStates(),
			"dispatch": s.dispatcher.Stats(),
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// maxRequestBytes caps the JSON bodies of POST /campaigns and POST
// /internal/jobs. A real spec is well under 1 KiB and a job request a few
// KiB; a larger body is refused with 400 before it is buffered.
const maxRequestBytes = 1 << 20

// decodeBody decodes r's body, at most maxRequestBytes, into v. Unknown
// fields are refused, and so is anything but white space after the value.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	var extra json.RawMessage
	if err := dec.Decode(&extra); err != io.EOF {
		return errors.New("data after the JSON value")
	}
	return nil
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	if err := decodeBody(w, r, &req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("decoding request: %v", err))
		return
	}
	rec, err := s.engine.Submit(r.Context(), req.Spec, req.Workers)
	if err != nil {
		// A store that cannot persist the record is the server's fault;
		// everything else (bad spec, unknown trace ref) is the
		// request's.
		code := http.StatusBadRequest
		if errors.Is(err, engine.ErrStore) {
			code = http.StatusInternalServerError
		}
		httpError(w, code, err.Error())
		return
	}
	writeJSON(w, http.StatusAccepted, SubmitResponse{ID: rec.ID, Jobs: rec.JobsTotal, URL: "/campaigns/" + rec.ID})
}

// handleList returns every campaign's status, sorted by submission
// sequence — the order is stable across repeated polls and restarts.
func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	recs := s.engine.List()
	out := make([]Status, len(recs))
	for i, rec := range recs {
		out[i] = statusOf(rec)
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	rec, ok := s.engine.Get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "unknown campaign")
		return
	}
	writeJSON(w, http.StatusOK, statusOf(rec))
}

func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	rec, ok := s.engine.Get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "unknown campaign")
		return
	}
	res, err := s.engine.Result(rec.ID)
	if err != nil {
		if errors.Is(err, engine.ErrNotFound) {
			httpError(w, http.StatusConflict, fmt.Sprintf("campaign is %s; results not available", rec.State))
		} else {
			httpError(w, http.StatusInternalServerError, err.Error())
		}
		return
	}
	switch r.URL.Query().Get("format") {
	case "", "json":
		w.Header().Set("Content-Type", "application/json")
		if err := res.WriteJSON(w); err != nil {
			return // client went away mid-stream; nothing to salvage
		}
	case "csv":
		w.Header().Set("Content-Type", "text/csv")
		w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%q", rec.ID+".csv"))
		if err := res.WriteCSV(w); err != nil {
			return
		}
	default:
		httpError(w, http.StatusBadRequest, "format must be json or csv")
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.engine.Cancel(id) {
		httpError(w, http.StatusNotFound, "unknown campaign")
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]string{"id": id, "state": "cancelling"})
}

// handleEvents streams a campaign's progress as server-sent events: an
// initial "status" event, one "progress" event per completed job (cached
// jobs carry "cached": true), and a final "status" event when the campaign
// finishes. A campaign this process does not run gets its stored status,
// and the stream closes.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := s.engine.Get(id); !ok {
		httpError(w, http.StatusNotFound, "unknown campaign")
		return
	}
	s.metrics.sse.Inc()
	defer s.metrics.sse.Dec()
	streamEvents(w, r,
		func() (<-chan engine.Event, func(), bool) { return s.engine.Subscribe(id) },
		func() []byte {
			rec, _ := s.engine.Get(id)
			return event("status", statusOf(rec))
		},
		func(ev engine.Event) []byte {
			switch ev.Type {
			case "progress":
				return event("progress", ev.Progress)
			case "status":
				return event("status", statusOf(*ev.Status))
			}
			return nil
		})
}

// streamEvents is the server-sent-event protocol both event streams share.
// It subscribes before writing the first snapshot, so a terminal transition
// landing in between still arrives, as the channel's close; relays each
// frame the subscription delivers (a nil encoding skips it); and, when the
// channel closes, writes the snapshot again, so every stream ends with the
// final state even when frames were dropped or coalesced for a slow
// client. A subscription that is not live gets the snapshot alone. It
// returns when the stream ends or the client leaves.
func streamEvents[T any](w http.ResponseWriter, r *http.Request, subscribe func() (<-chan T, func(), bool), snapshot func() []byte, frame func(T) []byte) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	ch, cancel, live := subscribe()
	defer cancel()
	if _, err := w.Write(snapshot()); err != nil {
		return
	}
	flusher.Flush()
	if !live {
		return
	}
	for {
		select {
		case v, open := <-ch:
			if !open {
				_, _ = w.Write(snapshot())
				flusher.Flush()
				return
			}
			b := frame(v)
			if b == nil {
				continue
			}
			if _, err := w.Write(b); err != nil {
				return
			}
			flusher.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

// event encodes one SSE frame.
func event(name string, payload any) []byte {
	data, err := json.Marshal(payload)
	if err != nil {
		data = []byte(`{"error":"encoding event"}`)
	}
	return []byte(fmt.Sprintf("event: %s\ndata: %s\n\n", name, data))
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}
