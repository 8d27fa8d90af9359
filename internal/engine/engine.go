package engine

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/obs"
)

// States of a campaign's lifecycle, shared with the HTTP layer.
const (
	StateRunning   = "running"
	StateDone      = "done"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
)

// Campaign is one submitted campaign's persistent record: everything the
// status surface reports, minus the Result artifact itself (stored
// separately — it can be large). CacheHits counts jobs served from the
// job-result store instead of being executed; for a fully deduplicated
// resubmission it equals JobsTotal.
type Campaign struct {
	ID      string        `json:"id"`
	Seq     int           `json:"seq"`
	Name    string        `json:"name,omitempty"`
	Spec    campaign.Spec `json:"spec"`
	Workers int           `json:"workers"`

	// TraceHash is the full content hash Spec.TraceRef resolved to at
	// submission ("" for generated workloads).
	TraceHash string `json:"trace_hash,omitempty"`

	State      string            `json:"state"`
	JobsTotal  int               `json:"jobs_total"`
	JobsDone   int               `json:"jobs_done"`
	JobsFailed int               `json:"jobs_failed"`
	CacheHits  int               `json:"cache_hits"`
	Error      string            `json:"error,omitempty"`
	Created    time.Time         `json:"created"`
	Finished   time.Time         `json:"finished,omitzero"`
	Summary    *campaign.Summary `json:"summary,omitempty"`
}

// finishFrom finalises the record from a completed Result.
func (c *Campaign) finishFrom(res *campaign.Result) {
	c.JobsDone = len(res.Jobs)
	c.JobsFailed = res.Summary.Failed
	sum := res.Summary
	c.Summary = &sum
	if res.Summary.Failed > 0 {
		c.State = StateFailed
		c.Error = res.FirstError().Error()
	} else {
		c.State = StateDone
	}
}

// Options configures an Engine.
type Options struct {
	// Workers is the default per-campaign pool width for submissions
	// that do not specify one (0 = GOMAXPROCS).
	Workers int

	// Traces resolves Spec.TraceRef for submitted campaigns (nil when
	// the deployment has no trace store).
	Traces campaign.TraceOpener

	// Runner, when set, executes the jobs the job-result store cannot
	// serve — the distribution seam. A coordinator passes a Dispatcher
	// here to fan jobs out across worker processes; nil executes
	// in-process. Either way every execution runs under a store lease and
	// its result is published to the Store, so the fleet shares one
	// deduplicated job cache.
	Runner Runner

	// LeaseTTL is the job-lease lifetime (0 = a 30s default). A holder
	// heartbeats at a third of this; a lease idle past it is stolen, so it
	// bounds how long a crashed engine's jobs stay blocked.
	LeaseTTL time.Duration

	// Metrics, when set, instruments the engine and everything it runs:
	// submission/cache counters, store-operation latencies, and the
	// campaign pool's own telemetry (the registry is threaded into every
	// Run). Observation-only: a nil registry costs nothing and results
	// never depend on it.
	Metrics *obs.Registry
}

// Engine executes campaigns against a Store: submissions are persisted,
// jobs are deduplicated by JobKey against the job-result store, finished
// artifacts are persisted, and the whole registry is rebuilt from the store
// on construction — state survives a restart.
type Engine struct {
	store   Store
	opts    Options
	metrics engineMetrics
	owner   string // fleet-unique lease owner identity
	shared  bool   // other engines may write the store (see sharedStore)

	mu   sync.Mutex
	seq  int
	runs map[string]*run
}

// run is one campaign's live state: the mutating record plus progress
// subscribers. Recovered and finished campaigns keep a run with closed set.
type run struct {
	mu     sync.Mutex
	rec    Campaign
	cancel context.CancelFunc
	subs   map[chan Event]struct{}
	closed bool
}

// Event is one progress notification: a per-job "progress" event or a
// terminal "status" snapshot.
type Event struct {
	Type     string // "progress" or "status"
	Status   *Campaign
	Progress *campaign.Progress
}

// New builds an Engine over store, recovering persisted state: records are
// loaded, the ID sequence resumes past the highest stored record, and —
// unless the store is shared — any campaign still marked running (the
// process died mid-run) is finalised from its stored Result when the final
// write made it to disk, or marked failed when it did not. Its cache-hit
// count is lost either way; its jobs' results are not — they were published
// as each job finished and will serve a resubmission without a single
// re-execution.
func New(store Store, opts Options) (*Engine, error) {
	shared := sharedStore(store)
	// Both built-in backends time their own operations (records).
	if s, ok := store.(interface{ instrument(*obs.Registry) }); ok {
		s.instrument(opts.Metrics)
	}
	recs, err := store.Campaigns()
	if err != nil {
		return nil, err
	}
	if opts.LeaseTTL <= 0 {
		opts.LeaseTTL = defaultLeaseTTL
	}
	e := &Engine{store: store, opts: opts, metrics: newEngineMetrics(opts.Metrics), owner: leaseOwnerID(), shared: shared, runs: make(map[string]*run, len(recs))}
	// Resume the ID sequence past every record the store has evidence of
	// — a corrupted (hence unlisted) record still fences off its ID, so
	// its orphaned result artifact can never be served for a new
	// campaign.
	if e.seq, err = store.MaxSeq(); err != nil {
		return nil, err
	}
	for _, rec := range recs {
		if rec.Seq > e.seq {
			e.seq = rec.Seq
		}
		if rec.State == StateRunning && !shared {
			if res, err := store.Result(rec.ID); err == nil {
				rec.finishFrom(res)
			} else {
				rec.State = StateFailed
				rec.Error = "interrupted by restart before completion"
			}
			// The true finish time died with the process; recovery
			// time keeps the "finished is set once terminal"
			// contract.
			rec.Finished = time.Now().UTC()
			if err := store.PutCampaign(rec); err != nil {
				return nil, fmt.Errorf("engine: recovering campaign %s: %w", rec.ID, err)
			}
		}
		e.runs[rec.ID] = &run{rec: rec, closed: true}
	}
	return e, nil
}

// sharedStore reports whether other engines may write store concurrently:
// a SQLiteStore opened without its state directory's owner lock. A MemStore
// and an owner-locked state directory are exclusive. Get, List and Result
// read a shared store for campaigns other engines submitted, and New leaves
// its running records — a live peer's — to the store's single owner.
func sharedStore(store Store) bool {
	s, ok := store.(*SQLiteStore)
	return ok && s.ownerLock == nil
}

// resolveTraceHash maps a spec's trace ref to the full content hash of the
// trace bytes, validating the ref in the process.
func resolveTraceHash(traces campaign.TraceOpener, ref string) (string, error) {
	if traces == nil {
		return "", fmt.Errorf("engine: spec references trace %q but no trace opener is configured", ref)
	}
	tr, hash, err := traces.OpenTrace(ref)
	if err != nil {
		return "", err
	}
	tr.Close()
	return hash, nil
}

// Submit validates spec, persists a new campaign record, and starts its run
// on a background goroutine. The returned record is the initial (running)
// snapshot. Validation failures — a bad spec, an unresolvable trace ref —
// are the caller's to report; nothing is persisted for them.
func (e *Engine) Submit(spec campaign.Spec, workers int) (Campaign, error) {
	jobs, err := spec.Jobs()
	if err != nil {
		return Campaign{}, err
	}
	var traceHash string
	if spec.TraceRef != "" {
		if traceHash, err = resolveTraceHash(e.opts.Traces, spec.TraceRef); err != nil {
			return Campaign{}, err
		}
	}
	if workers <= 0 {
		workers = e.opts.Workers
	}

	// Mint the ID by compare-and-swap: CreateCampaign refuses an ID that
	// exists, so when another engine sharing the store minted the same
	// sequence first, this engine observes the conflict, resynchronises
	// its sequence from the store, and retries with the next one — two
	// coordinators can never clobber each other's records. Persisting
	// before publishing also means a campaign that cannot be recorded is
	// never listed, so no client can observe an ID that then vanishes;
	// a consumed sequence number just becomes a gap.
	var rec Campaign
	for attempt := 0; ; attempt++ {
		e.mu.Lock()
		e.seq++
		rec = Campaign{
			ID:        fmt.Sprintf("c%06d", e.seq),
			Seq:       e.seq,
			Name:      spec.Name,
			Spec:      spec,
			Workers:   workers,
			TraceHash: traceHash,
			State:     StateRunning,
			JobsTotal: len(jobs),
			Created:   time.Now().UTC(),
		}
		e.mu.Unlock()
		err := e.store.CreateCampaign(rec)
		if err == nil {
			break
		}
		if !errors.Is(err, ErrConflict) || attempt >= 100 {
			return Campaign{}, fmt.Errorf("%w: %v", ErrStore, err)
		}
		max, merr := e.store.MaxSeq()
		if merr != nil {
			return Campaign{}, fmt.Errorf("%w: %v", ErrStore, merr)
		}
		e.mu.Lock()
		if max > e.seq {
			e.seq = max
		}
		e.mu.Unlock()
	}
	ctx, cancel := context.WithCancel(context.Background())
	r := &run{rec: rec, cancel: cancel, subs: map[chan Event]struct{}{}}
	e.mu.Lock()
	e.runs[rec.ID] = r
	e.mu.Unlock()
	e.metrics.submits.Inc()
	e.metrics.active.Inc()
	go e.execute(ctx, r)
	return rec, nil
}

// execute runs one submitted campaign to completion, persisting the Result
// before the terminal record write: a crash between the two leaves a
// running record that New completes from the stored Result, whereas the
// reverse order could mark done a campaign whose artifact never reached
// the disk.
func (e *Engine) execute(ctx context.Context, r *run) {
	r.mu.Lock()
	id, spec, workers, traceHash := r.rec.ID, r.rec.Spec, r.rec.Workers, r.rec.TraceHash
	jobs := r.rec.JobsTotal
	r.mu.Unlock()

	// The campaign ID rides the context so every log record below the
	// engine — pool, dispatcher, store — can be correlated to it.
	ctx = obs.WithCampaignID(ctx, id)
	lg := obs.ContextLogger(ctx, obs.Logger("engine"))
	start := time.Now()
	lg.Info("campaign started", "name", spec.Name, "jobs", jobs, "workers", workers)

	leased := e.jobRunner(traceHash, e.opts.Traces)
	res, err := campaign.Run(ctx, spec, campaign.RunOptions{
		Workers:    workers,
		Traces:     e.opts.Traces,
		Cache:      leased,
		Runner:     leased,
		OnProgress: r.onProgress,
		Metrics:    e.opts.Metrics,
	})
	e.metrics.active.Dec()
	if err == nil && res != nil {
		if perr := e.store.PutResult(id, res); perr != nil {
			res, err = nil, perr
		}
	}

	// Progress callbacks all returned with campaign.Run, so rec is the
	// final snapshot until the terminal state is published below.
	r.mu.Lock()
	rec := r.rec
	r.mu.Unlock()
	rec.Finished = time.Now().UTC()
	switch {
	case err == nil && res != nil:
		// A completed campaign keeps its result even if a cancel raced
		// in after the last job finished.
		rec.finishFrom(res)
	case ctx.Err() != nil:
		rec.State = StateCancelled
		rec.Error = ctx.Err().Error()
	default:
		rec.State = StateFailed
		rec.Error = err.Error()
	}
	// Persist the terminal record before publishing it, so whoever sees
	// the campaign finish sees what a restart would serve. Best effort: if
	// the write fails, New re-finalises the still-running record from the
	// stored Result on next open.
	_ = e.store.PutCampaign(rec)

	r.mu.Lock()
	r.rec = rec
	r.broadcastLocked(Event{Type: "status", Status: &rec})
	for ch := range r.subs {
		close(ch)
	}
	r.subs = nil
	r.closed = true
	r.mu.Unlock()
	lg.Info("campaign finished",
		"state", rec.State,
		"jobs_done", rec.JobsDone,
		"jobs_failed", rec.JobsFailed,
		"cache_hits", rec.CacheHits,
		"elapsed", time.Since(start).Round(time.Millisecond).String(),
	)
}

func (r *run) onProgress(p campaign.Progress) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.rec.JobsDone = p.Done
	if p.Error != "" {
		r.rec.JobsFailed++
	}
	if p.Cached {
		r.rec.CacheHits++
	}
	pp := p
	r.broadcastLocked(Event{Type: "progress", Progress: &pp})
}

// broadcastLocked delivers ev to every subscriber, dropping it for
// subscribers whose buffers are full (the terminal status is re-read from
// the record, so nothing essential is lost).
func (r *run) broadcastLocked(ev Event) {
	for ch := range r.subs {
		select {
		case ch <- ev:
		default:
		}
	}
}

func (e *Engine) run(id string) *run {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.runs[id]
}

// Get returns a campaign's current record snapshot. On a shared store, an ID
// this engine does not hold is looked up in the store, so either
// coordinator sharing a store answers for any campaign — live local runs
// stay authoritative because the local record is always at least as fresh
// as the stored one.
func (e *Engine) Get(id string) (Campaign, bool) {
	r := e.run(id)
	if r == nil {
		if e.shared {
			if rec, err := e.store.Campaign(id); err == nil {
				return rec, true
			}
		}
		return Campaign{}, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.rec, true
}

// List returns every campaign's record, sorted by submission sequence — a
// stable order for repeated polls, across restarts included. On a shared
// store the listing merges in campaigns other engines submitted to the store,
// with this engine's own live records taking precedence.
func (e *Engine) List() []Campaign {
	e.mu.Lock()
	rs := make([]*run, 0, len(e.runs))
	for _, r := range e.runs {
		rs = append(rs, r)
	}
	e.mu.Unlock()
	out := make([]Campaign, 0, len(rs))
	local := make(map[string]struct{}, len(rs))
	for _, r := range rs {
		r.mu.Lock()
		out = append(out, r.rec)
		local[r.rec.ID] = struct{}{}
		r.mu.Unlock()
	}
	if e.shared {
		if recs, err := e.store.Campaigns(); err == nil {
			for _, rec := range recs {
				if _, ok := local[rec.ID]; !ok {
					out = append(out, rec)
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Result returns a campaign's stored artifact; ErrNotFound covers both an
// unknown ID and a campaign without a result (still running, cancelled, or
// failed before completion). On a shared store the ID need not be local: a
// finished sibling's artifact is served from the store, bytes identical.
func (e *Engine) Result(id string) (*campaign.Result, error) {
	if e.run(id) == nil && !e.shared {
		return nil, ErrNotFound
	}
	return e.store.Result(id)
}

// LookupJob returns the job result stored under key, if any — the worker
// read-through seam: a worker consults its store before executing, so a
// job a sibling already finished anywhere in the fleet is served, not
// recomputed.
func (e *Engine) LookupJob(key string) (campaign.JobResult, bool) {
	jr, err := e.store.Job(key)
	if err != nil {
		return campaign.JobResult{}, false
	}
	return jr, true
}

// SaveJob publishes a job the worker API executed under its content key —
// the one write path every job result takes (see publishJob), so a failed
// job is not saved and a failed write only costs a future recomputation.
func (e *Engine) SaveJob(key string, jr campaign.JobResult) {
	publishJob(e.store, key, e.owner, jr)
}

// Cancel requests cancellation of a running campaign; it reports whether
// the ID is known (cancelling a finished campaign is a no-op).
func (e *Engine) Cancel(id string) bool {
	r := e.run(id)
	if r == nil {
		return false
	}
	r.mu.Lock()
	cancel := r.cancel
	r.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	return true
}

// Subscribe registers for a campaign's events; the channel closes when the
// campaign finishes. live is false when the campaign has already finished
// (or the ID is unknown) — the caller reads the terminal state via Get.
func (e *Engine) Subscribe(id string) (ch <-chan Event, unsubscribe func(), live bool) {
	r := e.run(id)
	if r == nil {
		return nil, func() {}, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, func() {}, false
	}
	c := make(chan Event, 64)
	r.subs[c] = struct{}{}
	return c, func() {
		r.mu.Lock()
		defer r.mu.Unlock()
		delete(r.subs, c)
	}, true
}

// jobRunner builds the campaign pool's cache and runner for one campaign: a
// job the store cannot serve runs under the store's job-lease protocol, on
// the engine's configured Runner or, without one, in process against
// traces. The campaign's resolved trace hash is pinned into every job's key.
func (e *Engine) jobRunner(traceHash string, traces campaign.TraceOpener) *leaseRunner {
	inner := e.opts.Runner
	if inner == nil {
		inner = &LocalRunner{Traces: traces, executed: e.metrics.poolExec}
	}
	return &leaseRunner{inner: inner, store: e.store, owner: e.owner, ttl: e.opts.LeaseTTL, traceHash: traceHash, m: &e.metrics}
}

// ResolveOptions tunes a synchronous Resolve.
type ResolveOptions struct {
	// Workers bounds the pool (0 = the engine default).
	Workers int
	// Traces overrides the engine's trace opener (nil = the engine's).
	Traces campaign.TraceOpener
	// OnProgress, when set, receives each job-completion event.
	OnProgress func(campaign.Progress)
}

// ResolveStats reports how a Resolve was served.
type ResolveStats struct {
	// Jobs is the campaign's job count.
	Jobs int
	// CacheHits counts jobs served from the store; Jobs - CacheHits
	// were executed.
	CacheHits int
}

// Resolve runs spec synchronously through the job-result store without
// registering a campaign: every job is served from the store when its key
// is present and executed (and published) when it is not. The figure endpoints
// and the CLI's -statedir path use it — overlapping sweeps share results
// with each other and with submitted campaigns.
func (e *Engine) Resolve(ctx context.Context, spec campaign.Spec, opts ResolveOptions) (*campaign.Result, ResolveStats, error) {
	traces := opts.Traces
	if traces == nil {
		traces = e.opts.Traces
	}
	var traceHash string
	if spec.TraceRef != "" {
		th, err := resolveTraceHash(traces, spec.TraceRef)
		if err != nil {
			return nil, ResolveStats{}, err
		}
		traceHash = th
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = e.opts.Workers
	}

	// OnProgress calls are serialised by the pool and complete before Run
	// returns, so stats needs no locking of its own.
	var stats ResolveStats
	leased := e.jobRunner(traceHash, traces)
	res, err := campaign.Run(ctx, spec, campaign.RunOptions{
		Workers: workers,
		Traces:  traces,
		Cache:   leased,
		Runner:  leased,
		Metrics: e.opts.Metrics,
		OnProgress: func(p campaign.Progress) {
			if p.Cached {
				stats.CacheHits++
			}
			if opts.OnProgress != nil {
				opts.OnProgress(p)
			}
		},
	})
	if err != nil {
		return nil, ResolveStats{}, err
	}
	stats.Jobs = len(res.Jobs)
	return res, stats, nil
}

// ResolveCampaign is the internal/experiments runner seam: Resolve with the
// engine's defaults, failing on the first job error like the experiments'
// own direct runner does.
func (e *Engine) ResolveCampaign(ctx context.Context, spec campaign.Spec, workers int) (*campaign.Result, error) {
	res, _, err := e.Resolve(ctx, spec, ResolveOptions{Workers: workers})
	return res, err
}
