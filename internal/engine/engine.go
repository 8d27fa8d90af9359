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

	// Traces resolves Spec.TraceRef for submitted and resolved campaigns
	// (nil when the deployment has no trace store).
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
// jobs are deduplicated by JobKey against the job-result store, and finished
// artifacts are persisted. The engine holds in memory only the campaigns it
// is running; the store is its record of every other campaign — one this
// engine finished, one from before a restart, or one another engine sharing
// the store submitted — so every read of such a campaign goes to the store.
type Engine struct {
	store   Store
	opts    Options
	metrics engineMetrics
	owner   string // fleet-unique lease owner identity

	mu   sync.Mutex
	seq  int
	runs map[string]*run
}

// run is one running campaign's live state: the mutating record plus
// progress subscribers. closed marks a finished run, which leaves the engine
// once its terminal record is stored and stays when that write failed.
type run struct {
	cancel context.CancelFunc // set before the run is published; never changes

	mu     sync.Mutex
	rec    Campaign
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

// New builds an Engine over store. It reads nothing from the store but the
// ID sequence, which resumes past every record the store has evidence of.
// Restart recovery is not the engine's: only a state directory's owner may
// finalise the campaigns a dead process left running (OpenStateDir).
func New(store Store, opts Options) (*Engine, error) {
	// Both built-in backends time their own operations (records).
	if s, ok := store.(interface{ instrument(*obs.Registry) }); ok {
		s.instrument(opts.Metrics)
	}
	if opts.LeaseTTL <= 0 {
		opts.LeaseTTL = defaultLeaseTTL
	}
	// A corrupted (hence unlisted) record still fences off its ID, so its
	// orphaned result artifact can never be served for a new campaign.
	seq, err := store.MaxSeq()
	if err != nil {
		return nil, err
	}
	return &Engine{store: store, opts: opts, metrics: newEngineMetrics(opts.Metrics), owner: leaseOwnerID(), seq: seq, runs: map[string]*run{}}, nil
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
// are the caller's to report; nothing is persisted for them. The run's
// context keeps ctx's values, such as the submitting request's ID, which
// a RemoteRunner forwards with every job; ctx's cancellation does not end
// the run, Cancel does.
func (e *Engine) Submit(ctx context.Context, spec campaign.Spec, workers int) (Campaign, error) {
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
	ctx, cancel := context.WithCancel(context.WithoutCancel(ctx))
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
// running record that the state directory's next owner completes from the
// stored Result (recoverInterrupted), whereas the reverse order could mark
// done a campaign whose artifact never reached the disk.
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

	leased := e.jobRunner(traceHash)
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
	// the campaign finish sees what a restart would serve.
	perr := e.store.PutCampaign(rec)
	if perr != nil {
		lg.Warn("storing the terminal record failed; the store still reads running", "error", perr.Error())
	}

	r.mu.Lock()
	r.rec = rec
	r.broadcastLocked(Event{Type: "status", Status: &rec})
	for ch := range r.subs {
		close(ch)
	}
	r.subs = nil
	r.closed = true
	r.mu.Unlock()
	// The store answers for the campaign from here on. When the terminal
	// write failed the run stays, so this process still reports the truth
	// while the store reads running.
	if perr == nil {
		e.mu.Lock()
		delete(e.runs, rec.ID)
		e.mu.Unlock()
	}
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

// Get returns a campaign's current record snapshot: a run of this engine's
// own, or else the store's record. A run is looked up first and leaves only
// once its terminal record is stored, so no read between the two is stale.
func (e *Engine) Get(id string) (Campaign, bool) {
	if r := e.run(id); r != nil {
		r.mu.Lock()
		defer r.mu.Unlock()
		return r.rec, true
	}
	rec, err := e.store.Campaign(id)
	return rec, err == nil
}

// List returns every campaign's record, sorted by submission sequence — a
// stable order for repeated polls, across restarts included: the store's
// records, with this engine's runs taking precedence.
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
	// Read after the runs: a run missing from them left only after its
	// terminal record was stored.
	if recs, err := e.store.Campaigns(); err == nil {
		for _, rec := range recs {
			if _, ok := local[rec.ID]; !ok {
				out = append(out, rec)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Result returns a campaign's stored artifact, bytes identical whichever
// engine ran it; ErrNotFound covers both an unknown ID and a campaign
// without a result (still running, cancelled, or failed before completion).
func (e *Engine) Result(id string) (*campaign.Result, error) {
	return e.store.Result(id)
}

// ServeJob answers a job the worker API was handed under its content key
// with the result stored there, so a job a sibling already finished
// anywhere in the fleet is served, not recomputed; served reports that
// case. Otherwise it returns run's result, published under key. It reads
// and writes by the lease runner's rules: a stored failure is a miss
// (storedJob), and a failed job is not published (publishJob).
func (e *Engine) ServeJob(key string, run func() campaign.JobResult) (jr campaign.JobResult, served bool) {
	if jr, ok := storedJob(e.store, key); ok {
		return jr, true
	}
	jr = run()
	publishJob(e.store, key, e.owner, jr)
	return jr, false
}

// Cancel requests cancellation of a campaign this engine runs; it reports
// whether the ID is known. Cancelling any other campaign — finished, or run
// by another engine sharing the store — is a no-op.
func (e *Engine) Cancel(id string) bool {
	r := e.run(id)
	if r == nil {
		_, err := e.store.Campaign(id)
		return err == nil
	}
	r.cancel()
	return true
}

// Subscribe registers for the events of a campaign this engine runs; the
// channel closes when the campaign finishes. live is false for any other
// campaign (finished, another engine's, or unknown) — the caller reads its
// state via Get.
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
// the engine's configured Runner or, without one, in process against the
// engine's trace opener. The campaign's resolved trace hash is pinned into
// every job's key.
func (e *Engine) jobRunner(traceHash string) *leaseRunner {
	inner := e.opts.Runner
	if inner == nil {
		inner = &LocalRunner{Traces: e.opts.Traces, executed: e.metrics.poolExec}
	}
	return &leaseRunner{inner: inner, store: e.store, owner: e.owner, ttl: e.opts.LeaseTTL, traceHash: traceHash, m: &e.metrics}
}

// ResolveOptions tunes a synchronous Resolve.
type ResolveOptions struct {
	// Workers bounds the pool (0 = the engine default).
	Workers int
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
// is present and executed (and published) when it is not. The figure
// endpoints and the CLI's campaign command use it — overlapping sweeps share
// results with each other and with submitted campaigns.
func (e *Engine) Resolve(ctx context.Context, spec campaign.Spec, opts ResolveOptions) (*campaign.Result, ResolveStats, error) {
	var traceHash string
	if spec.TraceRef != "" {
		th, err := resolveTraceHash(e.opts.Traces, spec.TraceRef)
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
	leased := e.jobRunner(traceHash)
	res, err := campaign.Run(ctx, spec, campaign.RunOptions{
		Workers: workers,
		Traces:  e.opts.Traces,
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
