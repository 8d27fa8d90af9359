package main

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/livetrace"
	"repro/internal/obs"
	"repro/internal/workload"
)

// figureStep is one experiment of the paper evaluation, in the order
// `cherivoke all` prints them.
type figureStep struct {
	name string
	run  func(experiments.Options) (any, error)
}

func step[T any](f func(experiments.Options) (T, error)) func(experiments.Options) (any, error) {
	return func(o experiments.Options) (any, error) { return f(o) }
}

func ablation(profile string) func(experiments.Options) (any, error) {
	return func(o experiments.Options) (any, error) { return experiments.AblationAssists(o, profile) }
}

var figureSteps = []figureStep{
	{"table2", step(experiments.Table2)},
	{"fig5", step(experiments.Fig5)},
	{"fig6", step(experiments.Fig6)},
	{"fig7", step(experiments.Fig7)},
	{"fig8a", step(experiments.Fig8a)},
	{"fig8b", step(experiments.Fig8b)},
	{"fig9", step(experiments.Fig9)},
	{"fig10", step(experiments.Fig10)},
	{"ablation_omnetpp", ablation("omnetpp")},
	{"ablation_hmmer", ablation("hmmer")},
	{"ablation_parallel", step(experiments.AblationParallel)},
	{"extensions", step(experiments.Extensions)},
	{"invariance", step(experiments.ScaleInvariance)},
}

// figures is the paper evaluation, run in process. Its unit is one pass
// over every experiment; every pass recomputes everything from the same
// seed, so all passes must produce the same rows.
type figures struct {
	inProcess
	repeated
	opts experiments.Options
	rep  []byte
}

func setupFigures(cfg config) (session, error) {
	// The quick scale keeps a pass near 4 s on 2 cores, so a run
	// measures several passes; the full-scale pass takes ~25 s.
	opts := experiments.Quick()
	if cfg.size == sizeTiny {
		opts.MaxLiveBytes, opts.MinSweeps = 1<<20, 1
	}
	opts.Seed = cfg.seed
	opts.Workers = poolWorkers
	rep, err := recordTrace("xalancbmk", cfg.seed, livetrace.AnalysisConfig(), workload.Options{
		MaxLiveBytes: opts.MaxLiveBytes, MinSweeps: opts.MinSweeps,
	})
	if err != nil {
		return nil, err
	}
	return &figures{opts: opts, rep: rep}, nil
}

func (f *figures) unit(_, _ int, tr *tracer) (unitResult, error) {
	pass := tr.begin(0, "pass", "")
	defer tr.end(pass)
	var w work
	digests := map[string]string{}
	for k, st := range figureSteps {
		id := tr.begin(pass, "experiment."+st.name, "")
		o := f.opts
		o.Runner = campaignRunner{tr: tr, parent: id, work: &w}
		rows, err := st.run(o)
		tr.end(id)
		if err != nil {
			return unitResult{ops: k + 1, failed: 1}, fmt.Errorf("%s: %w", st.name, err)
		}
		// Marshalling also rejects NaN and ±Inf, an invariant of every
		// row set; map-valued rows marshal with sorted keys.
		b, err := json.Marshal(rows)
		if err != nil || string(b) == "null" || string(b) == "[]" {
			return unitResult{ops: k + 1, failed: 1}, fmt.Errorf("%s: rows %s: %v", st.name, b, err)
		}
		digests[st.name] = digest(b)
	}
	u := unitResult{ops: len(figureSteps), events: w.events, swept: w.swept}
	if err := f.record(digests); err != nil {
		u.failed = 1
		return u, err
	}
	return u, nil
}

func (f *figures) probe() ([]byte, core.Config) { return f.rep, livetrace.AnalysisConfig() }

// repeated holds the output digests of a session's first unit; every later
// unit of a run repeats the same computation and must reproduce them.
type repeated struct {
	mu      sync.Mutex
	digests map[string]string
}

func (r *repeated) record(digests map[string]string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.digests == nil {
		r.digests = digests
		return nil
	}
	for name, d := range digests {
		if r.digests[name] != d {
			return fmt.Errorf("output %s differs between units of one seed", name)
		}
	}
	return nil
}

func (r *repeated) outputs() map[string]string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.digests
}

// inProcess is the part of the session interface that a workload without
// servers or end-of-run checks has nothing to do for.
type inProcess struct{}

func (inProcess) scrape() ([]obs.Sample, error) { return nil, nil }
func (inProcess) check() []error                { return nil }
func (inProcess) close()                        {}

// work tallies the simulated work in completed campaign results: mallocs
// plus frees, and the bytes the revocation sweeps and image sweeps read
// and wrote.
type work struct {
	events, swept uint64
}

func (w *work) add(res *campaign.Result) {
	for _, jr := range res.Jobs {
		w.events += jr.Mallocs + jr.Frees
		w.swept += jr.SweepTrafficBytes
		for _, st := range jr.ImageSweeps {
			w.swept += st.BytesRead + st.BytesWritten
		}
		if st := jr.ImageSweepSelf; st != nil {
			w.swept += st.BytesRead + st.BytesWritten
		}
	}
}

// runCampaign runs spec on the in-process pool exactly as experiments and
// campaign callers do by default. With a tracer it also records a campaign
// span and, through the RunOptions.Runner seam, one span per job.
func runCampaign(ctx context.Context, spec campaign.Spec, tr *tracer, parent int64) (*campaign.Result, error) {
	id := tr.begin(parent, "campaign", "")
	defer tr.end(id)
	opts := campaign.RunOptions{Workers: poolWorkers}
	if tr != nil {
		opts.Runner = jobSpans{tr: tr, parent: id}
	}
	return campaign.Run(ctx, spec, opts)
}

// jobSpans executes each job in process, as the pool would, inside a span.
type jobSpans struct {
	tr     *tracer
	parent int64
}

func (j jobSpans) RunJob(_ context.Context, spec campaign.Spec, job campaign.Job) (campaign.JobResult, error) {
	id := j.tr.begin(j.parent, "job", "")
	defer j.tr.end(id)
	return campaign.ExecuteJob(spec, job, nil), nil
}

// campaignRunner is the experiments.CampaignRunner the figures workload
// plugs in: it resolves each campaign with runCampaign and tallies its
// work, which the figures' row types do not carry.
type campaignRunner struct {
	tr     *tracer
	parent int64
	work   *work
}

func (r campaignRunner) ResolveCampaign(ctx context.Context, spec campaign.Spec, _ int) (*campaign.Result, error) {
	res, err := runCampaign(ctx, spec, r.tr, r.parent)
	if err == nil {
		r.work.add(res)
	}
	return res, err
}
