package campaign

import (
	"fmt"

	"repro/internal/revoke"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Default axis values used when a Spec leaves them empty.
const (
	DefaultSeed               = uint64(0xC0FFEE)
	DefaultFraction           = 0.25
	DefaultMaxLiveBytes       = uint64(24 << 20)
	DefaultQuarantineMinBytes = uint64(64 << 10)
)

// Traffic model names for Spec.Traffic: which cache hierarchy each job
// builds for DRAM-traffic accounting. Empty disables the accounting.
const (
	TrafficX86   = "x86"   // Table 1's x86 hierarchy (8 MiB LLC)
	TrafficCHERI = "cheri" // the FPGA prototype's hierarchy (256 KiB LLC)
)

// TraceProfile is the profile-axis sentinel used by trace-driven campaigns:
// a job whose Profile is this value takes its timing metadata from the
// trace's own recorded benchmark name. Specs with a TraceRef and an empty
// profile axis default to it; explicit profile names are still allowed (the
// trace supplies the events, the named profile the timing metadata — a
// controlled comparison).
const TraceProfile = "trace"

// TraceOpener resolves a Spec.TraceRef to a streaming trace reader plus the
// trace's full content hash (recorded in the job artifacts).
// *workload.Store implements it; the CLI's -trace flag provides a
// single-file implementation.
type TraceOpener interface {
	OpenTrace(ref string) (workload.TraceReader, string, error)
}

// Variant names one system configuration under test: the revocation sweep
// setup plus the core-level deployment switches of the paper's §8
// extensions.
type Variant struct {
	Name   string        `json:"name"`
	Revoke revoke.Config `json:"revoke"`

	// DirectFree disables CHERIvoke entirely (the insecure baseline).
	DirectFree bool `json:"direct_free,omitempty"`
	// ConcurrentSweep runs sweeps on spare cores (§3.5).
	ConcurrentSweep bool `json:"concurrent_sweep,omitempty"`
	// UnmapLarge unmaps whole-page frees instead of quarantining (§8).
	UnmapLarge bool `json:"unmap_large,omitempty"`
	// TypedReuse enables Cling-style type-stable reuse in the allocator.
	TypedReuse bool `json:"typed_reuse,omitempty"`
}

// PaperVariant is the paper's x86 evaluation configuration (§5.3): AVX2
// sweep kernel, PTE CapDirty page elimination with laundering, no CLoadTags.
func PaperVariant() Variant {
	return Variant{
		Name: "cherivoke",
		Revoke: revoke.Config{
			Kernel:      sim.KernelVector,
			UseCapDirty: true,
			Launder:     true,
		},
	}
}

// Spec declares a campaign: the cartesian product of its axes becomes the
// job list. Empty axes default to the paper's single-point defaults, so the
// zero Spec is the full default CHERIvoke run over all 17 profiles.
type Spec struct {
	Name string `json:"name,omitempty"`

	// Axes. Jobs are expanded profile-major, seed-minor, in the order
	// given here: profile × variant × fraction × max-live × seed.
	Profiles  []string  `json:"profiles,omitempty"`  // empty = all 17 profiles
	Variants  []Variant `json:"variants,omitempty"`  // empty = {PaperVariant}
	Fractions []float64 `json:"fractions,omitempty"` // empty = {0.25}
	MaxLive   []uint64  `json:"max_live,omitempty"`  // empty = {24 MiB}
	Seeds     []uint64  `json:"seeds,omitempty"`     // empty = {0xC0FFEE}

	// Per-job workload options.
	MinSweeps          int    `json:"min_sweeps,omitempty"`           // 0 = runner default
	MaxEvents          int    `json:"max_events,omitempty"`           // 0 = runner default
	QuarantineMinBytes uint64 `json:"quarantine_min_bytes,omitempty"` // 0 = 64 KiB

	// ScaledStartup shrinks the x86 machine's fixed per-sweep startup by
	// each workload's heap scale factor, as the figure experiments do
	// (scaled-down heaps sweep proportionally more often).
	ScaledStartup bool `json:"scaled_startup,omitempty"`

	// Traffic selects a cache-hierarchy model (TrafficX86 or TrafficCHERI)
	// for Figure 10's DRAM-traffic accounting. Each job builds and owns its
	// own hierarchy — hierarchies are runtime state and are never shared
	// between jobs, so traffic-enabled campaigns parallelise freely and
	// their artifacts stay byte-identical for any worker count. The sweep
	// shard count prices sweep time only; the traffic charge ignores it.
	Traffic string `json:"traffic,omitempty"`

	// Baseline additionally runs, per job, a matched direct-free run
	// (same seed, event volume bounded to the job's frees) and records
	// its peak footprint for memory-overhead normalisation (Figure 5b).
	Baseline bool `json:"baseline,omitempty"`

	// SweepImageSelf re-sweeps each job's final heap image
	// non-destructively with the job's own revoke configuration and
	// records the sweep stats (the ablation experiments' measurement).
	SweepImageSelf bool `json:"sweep_image_self,omitempty"`

	// ImageSweeps re-sweeps each job's final heap image once per listed
	// configuration (Figure 7 measures the same image under each kernel).
	// Laundering configurations mutate page CapDirty state and would
	// perturb the sweeps after them, so Jobs and every job run reject them
	// here; the variant's own laundering config is fine (SweepImageSelf
	// runs after all ImageSweeps).
	ImageSweeps []revoke.Config `json:"image_sweeps,omitempty"`

	// TraceRef, when set, replaces the workload generator: every job
	// streams the referenced trace (resolved through RunOptions.Traces —
	// a content hash against the server's store, or whatever ref the
	// configured opener understands) instead of synthesising events from
	// its profile. MinSweeps and MaxEvents do not apply — the trace *is*
	// the event sequence — so multi-valued Seeds and MaxLive axes are
	// rejected (they would expand into identical duplicate jobs), as is
	// ScaledStartup (the recording's heap scale is not part of the
	// trace). Variants and Fractions still sweep: they configure the
	// system the trace replays against.
	TraceRef string `json:"trace_ref,omitempty"`

	// TraceWindow is the streaming replay's event-window size (0 = the
	// codec default of 4096 events). It bounds the replay's peak event
	// buffer and never changes results.
	TraceWindow int `json:"trace_window,omitempty"`
}

// withDefaults resolves empty axes. It is idempotent; Run normalises the
// Spec once so the Result always embeds the resolved form.
func (s Spec) withDefaults() Spec {
	if len(s.Profiles) == 0 {
		if s.TraceRef != "" {
			s.Profiles = []string{TraceProfile}
		} else {
			s.Profiles = workload.Names(workload.All())
		}
	}
	if len(s.Variants) == 0 {
		s.Variants = []Variant{PaperVariant()}
	}
	for i := range s.Variants {
		if s.Variants[i].Name == "" {
			s.Variants[i].Name = fmt.Sprintf("variant%d", i)
		}
	}
	if len(s.Fractions) == 0 {
		s.Fractions = []float64{DefaultFraction}
	}
	if len(s.MaxLive) == 0 {
		s.MaxLive = []uint64{DefaultMaxLiveBytes}
	}
	if len(s.Seeds) == 0 {
		s.Seeds = []uint64{DefaultSeed}
	}
	if s.QuarantineMinBytes == 0 {
		s.QuarantineMinBytes = DefaultQuarantineMinBytes
	}
	return s
}

// Validate checks the spec without expanding it.
func (s Spec) Validate() error {
	_, err := s.Jobs()
	return err
}

// Job is one fully-resolved unit of work: a single workload replay against
// a single system configuration.
type Job struct {
	ID           int     `json:"id"`
	Profile      string  `json:"profile"`
	Variant      Variant `json:"variant"`
	Fraction     float64 `json:"fraction"`
	Seed         uint64  `json:"seed"`
	MaxLiveBytes uint64  `json:"max_live_bytes"`

	MinSweeps          int    `json:"min_sweeps,omitempty"`
	MaxEvents          int    `json:"max_events,omitempty"`
	QuarantineMinBytes uint64 `json:"quarantine_min_bytes"`
	ScaledStartup      bool   `json:"scaled_startup,omitempty"`
	Baseline           bool   `json:"baseline,omitempty"`
	Traffic            string `json:"traffic,omitempty"`

	// TraceRef, when set, makes the job a streamed trace replay instead
	// of a generated workload (see Spec.TraceRef).
	TraceRef string `json:"trace_ref,omitempty"`
}

// MaxJobs caps the job count one spec may expand to. No experiment
// campaign expands to more than 17 jobs (one per profile), so the cap
// leaves room for wide parameter sweeps, while a small hostile spec (a
// dozen entries on each axis, under 600 bytes, is 248,832 jobs) is refused
// before its job list is allocated.
const MaxJobs = 10000

// checkSweeps rejects a variant or image-sweep revoke configuration that
// revoke.Config.Validate refuses (a shard width outside [0, MaxShards] or an
// unknown kernel), and a laundering image sweep (see Spec.ImageSweeps). Jobs
// checks every variant; runJob checks the job it is handed again, because a
// worker's job never passed through Jobs.
func checkSweeps(v Variant, imageSweeps []revoke.Config) error {
	if err := v.Revoke.Validate(); err != nil {
		return fmt.Errorf("campaign: variant %q: %w", v.Name, err)
	}
	for i, cfg := range imageSweeps {
		if err := cfg.Validate(); err != nil {
			return fmt.Errorf("campaign: image sweep %d: %w", i, err)
		}
		if cfg.Launder {
			return fmt.Errorf("campaign: image sweep %d launders CapDirty state, which would perturb the sweeps after it", i)
		}
	}
	return nil
}

// Jobs expands the spec into its deterministic job list. Axis order is
// fixed: profile outermost, then variant, fraction, max-live, seed. A spec
// whose axes multiply past MaxJobs is rejected before anything is
// allocated.
func (s Spec) Jobs() ([]Job, error) {
	s = s.withDefaults()
	n := 1
	for _, axis := range []int{len(s.Profiles), len(s.Variants), len(s.Fractions), len(s.MaxLive), len(s.Seeds)} {
		if axis > 0 && n > MaxJobs/axis { // n*axis > MaxJobs, without overflowing
			return nil, fmt.Errorf("campaign: spec expands to more than %d jobs", MaxJobs)
		}
		n *= axis
	}
	for _, name := range s.Profiles {
		if s.TraceRef != "" && name == TraceProfile {
			continue // sentinel: timing metadata comes from the trace header
		}
		if _, ok := workload.ByName(name); !ok {
			return nil, fmt.Errorf("campaign: unknown profile %q", name)
		}
	}
	if s.TraceRef != "" && s.ScaledStartup {
		return nil, fmt.Errorf("campaign: scaled_startup requires generated workloads (the heap scale is not recorded in a trace)")
	}
	if s.TraceRef != "" && len(s.Seeds) > 1 {
		return nil, fmt.Errorf("campaign: a seeds axis is inert for trace replays (the trace fixes the event sequence); remove it")
	}
	if s.TraceRef != "" && len(s.MaxLive) > 1 {
		return nil, fmt.Errorf("campaign: a max_live axis is inert for trace replays (the trace fixes the heap); remove it")
	}
	if s.TraceWindow < 0 {
		return nil, fmt.Errorf("campaign: negative trace window %d", s.TraceWindow)
	}
	for _, f := range s.Fractions {
		if f <= 0 {
			return nil, fmt.Errorf("campaign: non-positive quarantine fraction %v", f)
		}
	}
	for _, v := range s.Variants {
		if err := checkSweeps(v, s.ImageSweeps); err != nil {
			return nil, err
		}
	}
	switch s.Traffic {
	case "", TrafficX86, TrafficCHERI:
	default:
		return nil, fmt.Errorf("campaign: unknown traffic model %q (want %q or %q)", s.Traffic, TrafficX86, TrafficCHERI)
	}
	jobs := make([]Job, 0, n)
	for _, p := range s.Profiles {
		for _, v := range s.Variants {
			for _, f := range s.Fractions {
				for _, live := range s.MaxLive {
					for _, seed := range s.Seeds {
						jobs = append(jobs, Job{
							ID:                 len(jobs),
							Profile:            p,
							Variant:            v,
							Fraction:           f,
							Seed:               seed,
							MaxLiveBytes:       live,
							MinSweeps:          s.MinSweeps,
							MaxEvents:          s.MaxEvents,
							QuarantineMinBytes: s.QuarantineMinBytes,
							ScaledStartup:      s.ScaledStartup,
							Baseline:           s.Baseline,
							Traffic:            s.Traffic,
							TraceRef:           s.TraceRef,
						})
					}
				}
			}
		}
	}
	if len(jobs) == 0 {
		return nil, fmt.Errorf("campaign: spec expands to zero jobs")
	}
	return jobs, nil
}
