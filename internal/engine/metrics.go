package engine

import (
	"errors"
	"time"

	"repro/internal/campaign"
	"repro/internal/obs"
)

// storeOpBuckets bound the store-latency histograms: local-disk and
// in-memory operations, 100µs up to ~1.6s.
var storeOpBuckets = obs.ExpBuckets(0.0001, 2, 14)

// engineMetrics holds the engine's instruments; the zero value is the
// disabled form (obs instruments no-op on nil receivers).
type engineMetrics struct {
	submits       *obs.Counter
	active        *obs.Gauge
	cacheHits     *obs.Counter
	cacheMisses   *obs.Counter
	jobKeys       *obs.Counter
	leaseAcquired *obs.Counter
	leaseWaits    *obs.Counter
	leaseWaitSecs *obs.Histogram
	leaseServed   *obs.Counter
	poolExec      *obs.Counter
}

// newEngineMetrics materialises the engine's instruments against r (all
// no-ops when r is nil).
func newEngineMetrics(r *obs.Registry) engineMetrics {
	if r == nil {
		return engineMetrics{}
	}
	return engineMetrics{
		submits:     r.Counter("cherivoke_engine_campaigns_submitted_total", "Campaigns accepted by Submit."),
		active:      r.Gauge("cherivoke_engine_campaigns_active", "Submitted campaigns currently running."),
		cacheHits:   r.Counter("cherivoke_engine_cache_hits_total", "Jobs served from the job-result store without execution."),
		cacheMisses: r.Counter("cherivoke_engine_cache_misses_total", "Job-result store lookups that found nothing, or a stored failure."),
		jobKeys:     r.Counter("cherivoke_engine_jobkeys_total", "JobKey content-hash computations."),
		leaseAcquired: r.Counter("cherivoke_engine_lease_acquired_total",
			"Job leases acquired by this engine."),
		leaseWaits: r.Counter("cherivoke_engine_lease_waits_total",
			"Jobs that waited on another engine's live lease."),
		leaseWaitSecs: r.Histogram("cherivoke_engine_lease_wait_seconds",
			"Time a runner spent blocked on a sibling engine's job lease.",
			obs.ExpBuckets(0.001, 2, 14)),
		leaseServed: r.Counter("cherivoke_engine_lease_served_total",
			"Jobs served from the shared store instead of executing, because a sibling engine computed them."),
		poolExec: r.CounterVec(obs.MetricJobsExecuted,
			"Jobs executed in this process, by execution path.",
			obs.MetricJobsExecutedLabel).With("pool"),
	}
}

// dispatchMetrics holds the dispatcher's instruments; the zero value is the
// disabled form (obs instruments no-op on nil receivers).
type dispatchMetrics struct {
	jobs          *obs.CounterVec // labels: worker, outcome (ok|error|rejected)
	inflight      *obs.GaugeVec   // label: worker
	markdowns     *obs.CounterVec // label: worker
	reassigned    *obs.Counter
	localFallback *obs.Counter
	fallbackExec  *obs.Counter    // jobs executed via the local-fallback path
	probes        *obs.CounterVec // label: result (revived|still_down)
}

// newDispatchMetrics materialises the dispatcher's instruments against r
// (all no-ops when r is nil).
func newDispatchMetrics(r *obs.Registry) dispatchMetrics {
	if r == nil {
		return dispatchMetrics{}
	}
	return dispatchMetrics{
		jobs: r.CounterVec("cherivoke_dispatch_jobs_total",
			"Jobs dispatched to a worker, by worker URL and outcome (ok, error, rejected).",
			"worker", "outcome"),
		inflight: r.GaugeVec("cherivoke_dispatch_inflight",
			"Jobs currently dispatched to a worker and awaiting its reply.", "worker"),
		markdowns: r.CounterVec("cherivoke_dispatch_markdowns_total",
			"Transitions of a worker from healthy to down.", "worker"),
		reassigned: r.Counter("cherivoke_dispatch_reassigned_total",
			"Jobs that succeeded on a worker other than their shard-preferred one."),
		localFallback: r.Counter("cherivoke_dispatch_local_fallback_total",
			"Jobs executed locally because no worker could take them."),
		fallbackExec: r.CounterVec(obs.MetricJobsExecuted,
			"Jobs executed in this process, by execution path.",
			obs.MetricJobsExecutedLabel).With("fallback"),
		probes: r.CounterVec("cherivoke_dispatch_probe_total",
			"Health probes of down workers, by result (revived, still_down).", "result"),
	}
}

// timedStore decorates a Store with per-operation latency histograms and
// error counters. It is pure observation: every call forwards unchanged.
type timedStore struct {
	inner Store
	ops   *obs.HistogramVec
	errs  *obs.CounterVec
}

// instrumentStore wraps s with latency/error instruments registered on r;
// a nil registry returns s untouched, so the uninstrumented path does not
// even pay the wall-clock reads.
func instrumentStore(s Store, r *obs.Registry) Store {
	if r == nil {
		return s
	}
	return &timedStore{
		inner: s,
		ops: r.HistogramVec("cherivoke_engine_store_seconds",
			"Latency of job/result/campaign store operations.", storeOpBuckets, "op"),
		errs: r.CounterVec("cherivoke_engine_store_errors_total",
			"Store operations that returned an error (ErrNotFound excluded for lookups).", "op"),
	}
}

// observe records one finished store operation. notFound suppresses the
// error counter: a missed lookup is the cache working, not the store
// failing.
func (t *timedStore) observe(op string, start time.Time, err error, notFound bool) {
	t.ops.With(op).Observe(time.Since(start).Seconds())
	if err != nil && !notFound {
		t.errs.With(op).Inc()
	}
}

// PutCampaign implements Store.
func (t *timedStore) PutCampaign(c Campaign) error {
	start := time.Now()
	err := t.inner.PutCampaign(c)
	t.observe("put_campaign", start, err, false)
	return err
}

// CreateCampaign implements Store. A lost creation race is the CAS working,
// not the store failing, so ErrConflict stays out of the error counter.
func (t *timedStore) CreateCampaign(c Campaign) error {
	start := time.Now()
	err := t.inner.CreateCampaign(c)
	t.observe("create_campaign", start, err, errors.Is(err, ErrConflict))
	return err
}

// Campaign implements Store.
func (t *timedStore) Campaign(id string) (Campaign, error) {
	start := time.Now()
	c, err := t.inner.Campaign(id)
	t.observe("get_campaign", start, err, errors.Is(err, ErrNotFound))
	return c, err
}

// AcquireJobLease implements Store. A held lease is the protocol working,
// not the store failing, so ErrLeaseHeld stays out of the error counter.
func (t *timedStore) AcquireJobLease(key, owner string, ttl time.Duration) error {
	start := time.Now()
	err := t.inner.AcquireJobLease(key, owner, ttl)
	t.observe("acquire_lease", start, err, errors.Is(err, ErrLeaseHeld))
	return err
}

// ReleaseJobLease implements Store.
func (t *timedStore) ReleaseJobLease(key, owner string) error {
	start := time.Now()
	err := t.inner.ReleaseJobLease(key, owner)
	t.observe("release_lease", start, err, false)
	return err
}

// Campaigns implements Store.
func (t *timedStore) Campaigns() ([]Campaign, error) {
	start := time.Now()
	recs, err := t.inner.Campaigns()
	t.observe("list_campaigns", start, err, false)
	return recs, err
}

// PutResult implements Store.
func (t *timedStore) PutResult(id string, res *campaign.Result) error {
	start := time.Now()
	err := t.inner.PutResult(id, res)
	t.observe("put_result", start, err, false)
	return err
}

// Result implements Store.
func (t *timedStore) Result(id string) (*campaign.Result, error) {
	start := time.Now()
	res, err := t.inner.Result(id)
	t.observe("get_result", start, err, errors.Is(err, ErrNotFound))
	return res, err
}

// Job implements Store.
func (t *timedStore) Job(key string) (campaign.JobResult, error) {
	start := time.Now()
	jr, err := t.inner.Job(key)
	t.observe("get_job", start, err, errors.Is(err, ErrNotFound))
	return jr, err
}

// MaxSeq implements Store.
func (t *timedStore) MaxSeq() (int, error) {
	start := time.Now()
	n, err := t.inner.MaxSeq()
	t.observe("max_seq", start, err, false)
	return n, err
}

// PeekJobLease implements Store.
func (t *timedStore) PeekJobLease(key string) (string, bool, error) {
	start := time.Now()
	owner, held, err := t.inner.PeekJobLease(key)
	t.observe("peek_lease", start, err, false)
	return owner, held, err
}

// LeaseChanged implements Store, forwarding: arming a channel is not a
// store operation worth timing.
func (t *timedStore) LeaseChanged() <-chan struct{} { return t.inner.LeaseChanged() }

// PublishJob implements Store.
func (t *timedStore) PublishJob(key, owner string, jr campaign.JobResult) error {
	start := time.Now()
	err := t.inner.PublishJob(key, owner, jr)
	t.observe("publish_job", start, err, false)
	return err
}

// Close implements Store, forwarding.
func (t *timedStore) Close() error { return t.inner.Close() }
