package engine

import "repro/internal/obs"

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

// dispatchMetrics holds the dispatcher's instruments, which are also its
// tallies (Dispatcher.Stats reads them back).
type dispatchMetrics struct {
	jobs          *obs.CounterVec // labels: worker, outcome (ok|error|rejected)
	inflight      *obs.GaugeVec   // label: worker
	markdowns     *obs.CounterVec // label: worker
	reassigned    *obs.Counter
	localFallback *obs.Counter
	fallbackExec  *obs.Counter // jobs executed via the local-fallback path
	revived       *obs.Counter // health probes that revived a down worker
	stillDown     *obs.Counter // health probes a down worker failed
}

// newDispatchMetrics materialises the dispatcher's instruments against r.
func newDispatchMetrics(r *obs.Registry) dispatchMetrics {
	probes := r.CounterVec("cherivoke_dispatch_probe_total",
		"Health probes of down workers, by result (revived, still_down).", "result")
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
		revived:   probes.With("revived"),
		stillDown: probes.With("still_down"),
	}
}
