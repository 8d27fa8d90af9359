// Package experiments regenerates every table and figure of the paper's
// evaluation (§5–§6). Each experiment has one constructor returning the rows
// or series the paper reports; cmd/cherivoke prints them and bench_test.go
// wraps them in testing.B benchmarks.
//
// All experiments are deterministic: seeded workload generation, simulated
// timing, no wall clocks. The parameter sweeps behind each figure are
// expressed as campaign specs and executed by internal/campaign's worker
// pool, so a full regeneration uses every core while producing exactly the
// results of a serial run.
package experiments

import (
	"context"
	"math"

	"repro/internal/baseline"
	"repro/internal/campaign"
	"repro/internal/revoke"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Options tunes experiment scale. The defaults match the figures; tests use
// Quick() to run in seconds.
type Options struct {
	Seed         uint64
	MaxLiveBytes uint64 // simulated live-heap cap per workload
	MinSweeps    int    // sweeps per workload run
	Fraction     float64
	Workers      int // campaign worker-pool width (0 = GOMAXPROCS)

	// Runner, when set, resolves the experiments' campaigns through an
	// external engine — typically internal/engine, whose job-result
	// store serves previously computed jobs instead of re-running them,
	// so the figures' heavily overlapping sweeps (Table 2 and Figures
	// 6–10 share spec axes) are deduplicated against each other and
	// against submitted campaigns. Nil runs each campaign in-process.
	Runner CampaignRunner

	// Context bounds the experiments' campaigns (nil = background). The
	// figure endpoints pass the HTTP request's context so an abandoned
	// request stops computing.
	Context context.Context
}

// ctx returns the configured context or background.
func (o Options) ctx() context.Context {
	if o.Context != nil {
		return o.Context
	}
	return context.Background()
}

// CampaignRunner resolves one campaign spec into its completed result. It
// is the seam the figure experiments hang on: *engine.Engine implements it
// over a persistent job-result store. Implementations must preserve the
// campaign determinism contract — the result must be byte-identical to an
// in-process campaign.Run of the same spec.
type CampaignRunner interface {
	ResolveCampaign(ctx context.Context, spec campaign.Spec, workers int) (*campaign.Result, error)
}

// Default returns the full-scale options (25% quarantine, the paper's
// default configuration).
func Default() Options {
	return Options{Seed: 0xC0FFEE, MaxLiveBytes: 24 << 20, MinSweeps: 4, Fraction: 0.25}
}

// Quick returns reduced-scale options for tests.
func Quick() Options {
	return Options{Seed: 0xC0FFEE, MaxLiveBytes: 4 << 20, MinSweeps: 2, Fraction: 0.25}
}

// paperRevokeConfig is the sweep configuration the paper's x86 evaluation
// models (§5.3): PTE CapDirty page elimination, AVX2 kernel, no CLoadTags
// ("our performance numbers are a pessimistic estimation").
func paperRevokeConfig() revoke.Config {
	return revoke.Config{
		Kernel:      sim.KernelVector,
		UseCapDirty: true,
		Launder:     true,
	}
}

// spec builds the figure experiments' standard campaign over the given
// profiles: paper-default CHERIvoke variant (unless overridden), one
// fraction/seed/heap-scale point, per-workload scaled sweep startup.
func (o Options) spec(profiles []string, variants ...campaign.Variant) campaign.Spec {
	if len(variants) == 0 {
		variants = []campaign.Variant{campaign.PaperVariant()}
	}
	return campaign.Spec{
		Profiles:      profiles,
		Variants:      variants,
		Fractions:     []float64{o.Fraction},
		MaxLive:       []uint64{o.MaxLiveBytes},
		Seeds:         []uint64{o.Seed},
		MinSweeps:     o.MinSweeps,
		ScaledStartup: true,
	}
}

// run executes a campaign — through the Runner when one is configured,
// in-process otherwise — and fails on the first job error. Every figure and
// table assembles its rows from results resolved here, so pointing Runner
// at an engine deduplicates the whole evaluation grid.
func (o Options) run(spec campaign.Spec) (*campaign.Result, error) {
	var res *campaign.Result
	var err error
	if o.Runner != nil {
		res, err = o.Runner.ResolveCampaign(o.ctx(), spec, o.Workers)
	} else {
		res, err = campaign.Run(o.ctx(), spec, campaign.RunOptions{Workers: o.Workers})
	}
	if err != nil {
		return nil, err
	}
	if err := res.FirstError(); err != nil {
		return nil, err
	}
	return res, nil
}

// scaledMachine returns the x86 machine with its fixed per-sweep startup
// shrunk by the workload's heap scale factor: the scaled-down simulation
// sweeps 1/scale more often than the reference system, so leaving the
// startup cost fixed would overcharge it (most visibly for ffmpeg, whose
// 300 MiB reference heap shrinks furthest).
func scaledMachine(p workload.Profile, opts Options) sim.Machine {
	m := sim.X86()
	m.SweepStartup *= workload.Scale(p, workload.Options{
		Seed:         opts.Seed,
		MaxLiveBytes: opts.MaxLiveBytes,
		MinSweeps:    opts.MinSweeps,
	})
	return m
}

// Decomposition is one workload's normalised execution time, accumulated in
// Figure 6's order: quarantine only, + shadow map, + sweeping.
type Decomposition struct {
	Name           string
	QuarantineOnly float64
	PlusShadow     float64
	PlusSweep      float64
}

func decompositionOf(jr campaign.JobResult) Decomposition {
	return Decomposition{
		Name:           jr.Job.Profile,
		QuarantineOnly: jr.QuarantineOnly,
		PlusShadow:     jr.PlusShadow,
		PlusSweep:      jr.PlusSweep,
	}
}

// Fig6 regenerates Figure 6: the overhead decomposition for ffmpeg plus the
// SPEC subset at the default 25% heap overhead.
func Fig6(opts Options) ([]Decomposition, error) {
	res, err := opts.run(opts.spec(workload.Names(workload.All())))
	if err != nil {
		return nil, err
	}
	out := make([]Decomposition, len(res.Jobs))
	for i, jr := range res.Jobs {
		out[i] = decompositionOf(jr)
	}
	return out, nil
}

// Fig5Row is one benchmark of Figure 5: CHERIvoke's measured overheads next
// to the four baseline schemes' modelled ones.
type Fig5Row struct {
	Name      string
	CheriVoke baseline.Overheads
	Schemes   map[string]baseline.Overheads
}

// Fig5 regenerates Figure 5 over the SPEC subset: normalised execution time
// (5a) and memory utilisation (5b) for CHERIvoke (measured on the simulated
// system, with a matched direct-free run normalising memory) and
// Oscar/pSweeper/DangSan/Boehm-GC (cost models).
func Fig5(opts Options) ([]Fig5Row, error) {
	spec := opts.spec(workload.Names(workload.SPEC()))
	spec.Baseline = true
	res, err := opts.run(spec)
	if err != nil {
		return nil, err
	}
	out := make([]Fig5Row, 0, len(res.Jobs))
	for _, jr := range res.Jobs {
		p, _ := workload.ByName(jr.Job.Profile)
		row := Fig5Row{
			Name:      jr.Job.Profile,
			CheriVoke: baseline.Overheads{Runtime: jr.PlusSweep, Memory: jr.MemoryOverhead},
			Schemes:   map[string]baseline.Overheads{},
		}
		for _, s := range baseline.All() {
			row.Schemes[s.Name()] = s.Evaluate(p)
		}
		out = append(out, row)
	}
	return out, nil
}

// Geomean returns the geometric mean of vals.
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
