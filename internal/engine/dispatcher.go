package engine

import (
	"context"
	"errors"
	"log/slog"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/obs"
)

// DispatcherOptions tunes a Dispatcher. The zero value of every field is
// usable.
type DispatcherOptions struct {
	// Traces resolves trace refs for the jobs the dispatcher executes
	// in-process when no worker can (every worker down or failing). Nil
	// fails such trace jobs; deployments that replay traces wire it to
	// their trace store.
	Traces campaign.TraceOpener

	// InFlight bounds concurrently dispatched jobs per worker
	// (0 = 4). Together with the campaign pool width it is the
	// coordinator's backpressure: a slow worker queues, it is not
	// flooded.
	InFlight int

	// Metrics, when set, instruments the dispatcher: per-worker dispatch
	// outcomes, in-flight gauges, markdowns, reassignments, local
	// fallbacks, and health-probe results. Observation-only. Stats and
	// WorkerStates read the same counters, kept in a private registry when
	// this is nil.
	Metrics *obs.Registry
}

// Dispatcher shards jobs across a fleet of worker processes by JobKey
// hash and implements Runner over the whole fleet:
//
//   - the preferred worker for a job is worker[keyhash % N] — stable
//     affinity, so repeated campaigns route identical jobs to the same
//     worker;
//   - dispatch is bounded per worker (InFlight slots);
//   - a worker whose transport fails (or answers 5xx) is marked down and
//     the job is reassigned to the next healthy worker —
//     retry-with-reassignment, never retry against the same dead worker;
//     a worker that *rejects* a job (ErrJobRejected: missing trace, key
//     mismatch, bad credential) stays in the rotation while the job is
//     rerouted, so one unroutable job cannot collapse a healthy fleet;
//   - when every worker is down or has refused the job, the job runs
//     locally — bounded to GOMAXPROCS, independent of the fleet-sized
//     pool width — so a campaign always completes without oversubscribing
//     the coordinator;
//   - down workers are re-probed every probeInterval and rejoin when
//     their health endpoint answers.
//
// Its diagnostics (worker down, job rerouted, local fallback, worker
// revived) go to obs.Logger("dispatch"), and its tallies are its metrics.
//
// Results are unaffected by any of this: workers execute
// campaign.ExecuteJob on the same inputs, so where a job ran is invisible
// in the artifacts.
type Dispatcher struct {
	workers []*dispatchWorker
	local   *LocalRunner
	// localSlots bounds concurrent fallback executions: the pool width is
	// sized for the fleet (Capacity), not for this machine, so a down
	// fleet must not translate into Capacity concurrent local
	// simulations.
	localSlots chan struct{}
	log        *slog.Logger
	m          dispatchMetrics

	stopOnce sync.Once
	stop     chan struct{}
}

// DispatchStats counts where a dispatcher's jobs ran and how its fleet has
// behaved — the coordinator's /healthz surface, read off the counters its
// /metrics exports.
type DispatchStats struct {
	// Remote counts jobs executed by a worker.
	Remote int `json:"remote"`
	// Reassigned counts jobs that succeeded on a worker other than
	// their preferred one (a retry after a failure or a down mark).
	Reassigned int `json:"reassigned"`
	// LocalFallback counts jobs executed locally because no worker
	// could take them.
	LocalFallback int `json:"local_fallback"`
	// Rejected counts per-worker job refusals (ErrJobRejected) that
	// rerouted a job while the worker stayed in the rotation.
	Rejected int `json:"rejected"`
	// Markdowns counts transitions of a worker from healthy to down.
	Markdowns int `json:"markdowns"`
	// Probes counts health re-probes of down workers.
	Probes int `json:"probes"`
	// Revived counts down workers that answered a probe and rejoined.
	Revived int `json:"revived"`
}

// dispatchWorker is one worker's dispatch state: the transport, the
// in-flight bound, the health flag, and its per-worker instruments.
type dispatchWorker struct {
	runner *RemoteRunner
	slots  chan struct{}

	// Per-worker instruments, materialised once at construction.
	okJobs    *obs.Counter
	errJobs   *obs.Counter
	rejJobs   *obs.Counter
	inflightG *obs.Gauge
	markdownC *obs.Counter // healthy→down transitions

	mu         sync.Mutex
	down       bool
	dispatched int // jobs handed to this worker (any outcome)
}

func (w *dispatchWorker) isDown() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.down
}

func (w *dispatchWorker) setDown(down bool) (changed bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	changed = w.down != down
	w.down = down
	return changed
}

// NewDispatcher builds a dispatcher over the given workers and starts its
// health-probe loop. Close releases the loop. An empty worker list is
// legal: every job falls through to the local runner (the single-node
// degenerate case).
func NewDispatcher(workers []*RemoteRunner, opts DispatcherOptions) *Dispatcher {
	inflight := opts.InFlight
	if inflight <= 0 {
		inflight = 4
	}
	reg := opts.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	d := &Dispatcher{
		local:      &LocalRunner{Traces: opts.Traces},
		localSlots: make(chan struct{}, runtime.GOMAXPROCS(0)),
		log:        obs.Logger("dispatch"),
		m:          newDispatchMetrics(reg),
		stop:       make(chan struct{}),
	}
	for _, r := range workers {
		url := r.URL()
		d.workers = append(d.workers, &dispatchWorker{
			runner:    r,
			slots:     make(chan struct{}, inflight),
			okJobs:    d.m.jobs.With(url, "ok"),
			errJobs:   d.m.jobs.With(url, "error"),
			rejJobs:   d.m.jobs.With(url, "rejected"),
			inflightG: d.m.inflight.With(url),
			markdownC: d.m.markdowns.With(url),
		})
	}
	if len(d.workers) > 0 {
		go d.healthLoop()
	}
	return d
}

// Close stops the health-probe loop. In-flight jobs are unaffected.
func (d *Dispatcher) Close() {
	d.stopOnce.Do(func() { close(d.stop) })
}

// Capacity returns the fleet's total in-flight job bound — a sensible
// default campaign pool width for a coordinator (0 when no workers are
// configured).
func (d *Dispatcher) Capacity() int {
	if len(d.workers) == 0 {
		return 0
	}
	return len(d.workers) * cap(d.workers[0].slots)
}

// Stats returns a snapshot of where jobs have run so far.
func (d *Dispatcher) Stats() DispatchStats {
	revived := int(d.m.revived.Value())
	st := DispatchStats{
		Reassigned:    int(d.m.reassigned.Value()),
		LocalFallback: int(d.m.localFallback.Value()),
		Probes:        revived + int(d.m.stillDown.Value()),
		Revived:       revived,
	}
	for _, w := range d.workers {
		st.Remote += int(w.okJobs.Value())
		st.Rejected += int(w.rejJobs.Value())
		st.Markdowns += int(w.markdownC.Value())
	}
	return st
}

// WorkerState is one worker's externally visible dispatch state.
type WorkerState struct {
	// URL is the worker's base URL, as configured.
	URL string `json:"url"`
	// Down reports whether the worker is currently marked down.
	Down bool `json:"down"`
	// InFlight is the number of jobs dispatched to the worker and not yet
	// answered, at snapshot time.
	InFlight int `json:"in_flight"`
	// Dispatched counts jobs handed to this worker so far, any outcome.
	Dispatched int `json:"dispatched"`
	// Markdowns counts this worker's healthy→down transitions.
	Markdowns int `json:"markdowns"`
}

// WorkerStates reports each worker's URL, health, load, and dispatch
// history, in configuration order — the coordinator's health surface.
func (d *Dispatcher) WorkerStates() []WorkerState {
	out := make([]WorkerState, len(d.workers))
	for i, w := range d.workers {
		w.mu.Lock()
		out[i] = WorkerState{
			URL:        w.runner.URL(),
			Down:       w.down,
			InFlight:   len(w.slots),
			Dispatched: w.dispatched,
			Markdowns:  int(w.markdownC.Value()),
		}
		w.mu.Unlock()
	}
	return out
}

// shardIndex maps a JobKey (hex SHA-256) onto n workers by its leading 64
// bits. Keys shorter than 16 hex digits or with non-hex bytes (not
// produced by JobKey, but defended against) fall back to an FNV-1a fold.
func shardIndex(key string, n int) int {
	if len(key) >= 16 {
		if h, err := strconv.ParseUint(key[:16], 16, 64); err == nil {
			return int(h % uint64(n))
		}
	}
	var h uint64 = 14695981039346656037
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return int(h % uint64(n))
}

// RunJob implements Runner: dispatch to the job's preferred worker, walk
// the ring on failure, fall back to local execution when the whole fleet
// is unavailable.
func (d *Dispatcher) RunJob(ctx context.Context, key string, spec campaign.Spec, job campaign.Job) (campaign.JobResult, error) {
	n := len(d.workers)
	if n == 0 {
		return d.runLocal(ctx, key, spec, job)
	}
	start := shardIndex(key, n)
	for off := 0; off < n; off++ {
		w := d.workers[(start+off)%n]
		if w.isDown() {
			continue
		}
		// The slot bound is the per-worker backpressure; cancellation
		// must still win while queued.
		select {
		case w.slots <- struct{}{}:
		case <-ctx.Done():
			return campaign.JobResult{}, ctx.Err()
		}
		w.mu.Lock()
		w.dispatched++
		w.mu.Unlock()
		w.inflightG.Inc()
		jr, err := w.runner.RunJob(ctx, key, spec, job)
		w.inflightG.Dec()
		<-w.slots
		if err == nil {
			w.okJobs.Inc()
			if off > 0 {
				d.m.reassigned.Inc()
			}
			return jr, nil
		}
		if ctx.Err() != nil {
			return campaign.JobResult{}, ctx.Err()
		}
		if errors.Is(err, ErrJobRejected) {
			// The worker is alive and said no to this job; keep it in
			// the rotation and route the job onward.
			w.rejJobs.Inc()
			d.log.Info("job rerouted", "job", key, "error", err.Error())
			continue
		}
		w.errJobs.Inc()
		if w.setDown(true) {
			w.markdownC.Inc()
			d.log.Info("worker marked down", "worker", w.runner.URL(), "error", err.Error())
		}
	}
	d.m.localFallback.Inc()
	d.log.Info("no worker available; executing locally", "job", key)
	return d.runLocal(ctx, key, spec, job)
}

// runLocal executes one job on the local runner under the local
// concurrency bound, counting it as executed in this process.
func (d *Dispatcher) runLocal(ctx context.Context, key string, spec campaign.Spec, job campaign.Job) (campaign.JobResult, error) {
	select {
	case d.localSlots <- struct{}{}:
	case <-ctx.Done():
		return campaign.JobResult{}, ctx.Err()
	}
	defer func() { <-d.localSlots }()
	d.m.fallbackExec.Inc()
	return d.local.RunJob(ctx, key, spec, job)
}

// probeInterval is how often workers marked down are re-probed via their
// health endpoint.
const probeInterval = 3 * time.Second

// healthLoop re-probes down workers until Close.
func (d *Dispatcher) healthLoop() {
	t := time.NewTicker(probeInterval)
	defer t.Stop()
	for {
		select {
		case <-d.stop:
			return
		case <-t.C:
			d.probeDown(context.Background())
		}
	}
}

// probeDown probes every down worker once and revives those that answer.
func (d *Dispatcher) probeDown(ctx context.Context) {
	for _, w := range d.workers {
		if !w.isDown() {
			continue
		}
		if err := w.runner.Healthy(ctx); err == nil {
			if w.setDown(false) {
				d.m.revived.Inc()
				d.log.Info("worker healthy again", "worker", w.runner.URL())
			}
		} else {
			d.m.stillDown.Inc()
		}
	}
}
