package campaign

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"repro/internal/obs"
)

// RunOptions tunes how a campaign executes. They affect scheduling only;
// the Result is identical for any worker count.
type RunOptions struct {
	// Workers bounds the worker pool (0 = GOMAXPROCS).
	Workers int

	// OnProgress, when set, is called after each job completes. Calls
	// are serialised and Done is monotonic, but — by the nature of the
	// pool — not necessarily in job-ID order.
	OnProgress func(Progress)

	// Traces resolves Spec.TraceRef for trace-driven campaigns. Each job
	// opens its own reader, so a spec's trace may be streamed by many
	// jobs concurrently. Required when (and only when) the spec sets a
	// TraceRef.
	Traces TraceOpener

	// Cache, when set, is consulted before each job executes. A hit is
	// used verbatim (re-stamped with the current job's ID), so a correct
	// cache — one that only returns results produced by an identical job
	// under an identical spec — keeps artifacts byte-identical to an
	// uncached run. The pool only reads it: filling it is the Runner's
	// business (internal/engine's runner publishes each successful
	// result to the store its cache reads). Lookup must be safe for
	// concurrent use by the pool.
	Cache JobCache

	// Runner, when set, replaces in-process job execution: every cache
	// miss is handed to it instead of ExecuteJob. It is the distribution
	// seam — internal/engine plugs in a dispatcher that fans jobs out to
	// remote worker processes. Implementations must be safe for
	// concurrent use by the pool and must preserve the determinism
	// contract: for a given (spec, job) the returned JobResult must be
	// exactly what ExecuteJob would produce. A returned error marks the
	// job failed (it is a transport-level failure; job-level failures
	// travel inside JobResult.Error).
	Runner JobRunner

	// Metrics, when set, receives pool telemetry: queue depth, in-flight
	// jobs, executed/cached/failed completion counters, and per-job
	// wall-clock and simulated-runtime histograms (see
	// docs/OBSERVABILITY.md for the catalog). Observation-only by
	// contract — results are byte-identical with or without it.
	Metrics *obs.Registry
}

// JobRunner executes one fully expanded job from a normalised spec. Nil in
// RunOptions means in-process execution via ExecuteJob.
type JobRunner interface {
	RunJob(ctx context.Context, spec Spec, job Job) (JobResult, error)
}

// JobCache serves previously computed job results. The spec passed to
// Lookup is the normalised form (defaults resolved), so implementations can
// derive stable content keys from it. internal/engine implements this over
// a persistent Store, keyed by a content hash of everything that determines
// the result.
type JobCache interface {
	// Lookup returns a stored result for the job, if one exists.
	Lookup(spec Spec, job Job) (JobResult, bool)
}

// Progress describes one completed job.
type Progress struct {
	Done  int `json:"done"`
	Total int `json:"total"`

	JobID   int     `json:"job_id"`
	Profile string  `json:"profile"`
	Variant string  `json:"variant"`
	Runtime float64 `json:"runtime"`
	Error   string  `json:"error,omitempty"`

	// Cached marks a job served from RunOptions.Cache instead of being
	// executed.
	Cached bool `json:"cached,omitempty"`
}

// Result is a completed campaign: the resolved spec, one JobResult per job
// in expansion order, and aggregate statistics. It contains no wall-clock
// values, so serialising it is reproducible run-to-run.
type Result struct {
	Spec    Spec        `json:"spec"`
	Jobs    []JobResult `json:"jobs"`
	Summary Summary     `json:"summary"`
}

// Summary aggregates a campaign.
type Summary struct {
	Jobs   int `json:"jobs"`
	Failed int `json:"failed"`

	// GeomeanRuntime and MaxRuntime summarise normalised execution time
	// over the successful jobs.
	GeomeanRuntime float64 `json:"geomean_runtime"`
	MaxRuntime     float64 `json:"max_runtime"`

	TotalSweeps      uint64 `json:"total_sweeps"`
	TotalCapsRevoked uint64 `json:"total_caps_revoked"`
	TotalFrees       uint64 `json:"total_frees"`
}

// FirstError returns the first failed job's error, or nil.
func (r *Result) FirstError() error {
	for _, j := range r.Jobs {
		if j.Error != "" {
			return fmt.Errorf("campaign: job %d (%s/%s): %s",
				j.Job.ID, j.Job.Profile, j.Job.Variant.Name, j.Error)
		}
	}
	return nil
}

// Run expands spec and executes its jobs on a bounded worker pool. Each job
// builds its own isolated system, so jobs parallelise freely; results are
// collected by job ID, making the Result independent of Workers. Run stops
// dispatching when ctx is cancelled and returns ctx's error.
func Run(ctx context.Context, spec Spec, opts RunOptions) (*Result, error) {
	spec = spec.withDefaults()
	jobs, err := spec.Jobs()
	if err != nil {
		return nil, err
	}
	if spec.TraceRef != "" && opts.Traces == nil {
		return nil, fmt.Errorf("campaign: spec references trace %q but RunOptions.Traces is nil", spec.TraceRef)
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}

	pm := newPoolMetrics(opts.Metrics)
	pm.queue.Add(float64(len(jobs)))

	results := make([]JobResult, len(jobs))
	jobCh := make(chan int)
	var wg sync.WaitGroup
	var mu sync.Mutex // serialises the done counter and OnProgress
	done := 0
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobCh {
				pm.queue.Dec()
				pm.inflight.Inc()
				var jr JobResult
				cached := false
				var started time.Time
				if opts.Cache != nil {
					if hit, ok := opts.Cache.Lookup(spec, jobs[i]); ok {
						// The key covers every field that shapes the
						// result; only the expansion ID is this
						// campaign's own.
						hit.Job = jobs[i]
						jr, cached = hit, true
					}
				}
				if !cached {
					started = pm.jobStart()
					if opts.Runner != nil {
						var err error
						jr, err = opts.Runner.RunJob(ctx, spec, jobs[i])
						if err != nil {
							jr = failed(jobs[i], err)
						}
						// The runner may have crossed a process
						// boundary; the expansion ID is this
						// campaign's own, like a cache hit's.
						jr.Job = jobs[i]
					} else {
						jr = runJob(spec, jobs[i], opts.Traces)
						pm.executed.Inc()
					}
				}
				pm.jobDone(jr, cached, started)
				pm.inflight.Dec()
				results[i] = jr
				mu.Lock()
				done++
				if opts.OnProgress != nil {
					opts.OnProgress(Progress{
						Done:    done,
						Total:   len(jobs),
						JobID:   jr.Job.ID,
						Profile: jr.Job.Profile,
						Variant: jr.Job.Variant.Name,
						Runtime: jr.PlusSweep,
						Error:   jr.Error,
						Cached:  cached,
					})
				}
				mu.Unlock()
			}
		}()
	}

	sent := 0
dispatch:
	for i := range jobs {
		select {
		case jobCh <- i:
			sent++
		case <-ctx.Done():
			break dispatch
		}
	}
	close(jobCh)
	wg.Wait()
	// Jobs never dispatched (cancellation) leave the queue gauge; drain it.
	pm.queue.Add(-float64(len(jobs) - sent))
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	res := &Result{Spec: spec, Jobs: results}
	res.Summary = summarize(results)
	return res, nil
}

func summarize(jobs []JobResult) Summary {
	s := Summary{Jobs: len(jobs)}
	var runtimes []float64
	for _, j := range jobs {
		if j.Error != "" {
			s.Failed++
			continue
		}
		runtimes = append(runtimes, j.PlusSweep)
		if j.PlusSweep > s.MaxRuntime {
			s.MaxRuntime = j.PlusSweep
		}
		s.TotalSweeps += j.Stats.Sweeps
		s.TotalCapsRevoked += j.Stats.CapsRevoked
		s.TotalFrees += j.Frees
	}
	s.GeomeanRuntime = Geomean(runtimes)
	return s
}

// Geomean returns the geometric mean of vals (0 for empty or non-positive
// input).
func Geomean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	logSum := 0.0
	for _, v := range vals {
		if v <= 0 {
			return 0
		}
		logSum += math.Log(v)
	}
	return math.Exp(logSum / float64(len(vals)))
}
