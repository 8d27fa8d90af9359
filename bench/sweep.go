package main

import (
	"bytes"
	"context"
	"fmt"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/livetrace"
	"repro/internal/revoke"
	"repro/internal/sim"
	"repro/internal/workload"
)

// sweepTraffic is one sweep-heavy campaign with the CHERI cache model on:
// pointer-dense profiles, a 5% quarantine so sweeps come often, and every
// job's final image re-swept. Its unit is one campaign.Run of the spec; all
// runs of one seed must produce the same artifact.
type sweepTraffic struct {
	inProcess
	repeated
	spec campaign.Spec
	rep  []byte
}

const sweepFraction = 0.05

func setupSweep(cfg config) (session, error) {
	live, minSweeps := uint64(16<<20), 12 // ~2 s per campaign on 2 cores
	if cfg.size == sizeTiny {
		live, minSweeps = 2<<20, 2
	}
	spec := campaign.Spec{
		Name:     "sweep-traffic",
		Profiles: []string{"omnetpp", "xalancbmk", "dealII", "astar"},
		Variants: []campaign.Variant{
			campaign.PaperVariant(),
			{Name: "capdirty-cloadtags-x4", Revoke: revoke.Config{
				Kernel: sim.KernelVector, UseCapDirty: true, UseCLoadTags: true, Shards: 4,
			}},
		},
		Fractions:      []float64{sweepFraction},
		MaxLive:        []uint64{live},
		Seeds:          []uint64{cfg.seed, cfg.seed + 1},
		MinSweeps:      minSweeps,
		Traffic:        campaign.TrafficCHERI,
		SweepImageSelf: true,
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	rep, err := recordTrace("omnetpp", cfg.seed, sweepProbeConfig(), workload.Options{MaxLiveBytes: live, MinSweeps: minSweeps})
	if err != nil {
		return nil, err
	}
	return &sweepTraffic{spec: spec, rep: rep}, nil
}

// sweepProbeConfig is the paper configuration at the workload's quarantine
// fraction.
func sweepProbeConfig() core.Config {
	cfg := livetrace.AnalysisConfig()
	cfg.Policy.Fraction = sweepFraction
	return cfg
}

func (s *sweepTraffic) unit(_, _ int, tr *tracer) (unitResult, error) {
	res, err := runCampaign(context.Background(), s.spec, tr, 0)
	if err != nil {
		return unitResult{ops: 1, failed: 1}, err
	}
	u := unitResult{ops: len(res.Jobs)}
	for _, jr := range res.Jobs {
		if err := checkSweepJob(jr, s.spec.MinSweeps); err != nil {
			u.failed++
			return u, err
		}
	}
	var w work
	w.add(res)
	u.events, u.swept = w.events, w.swept
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		u.failed++
		return u, err
	}
	if err := s.record(map[string]string{"artifact": digest(buf.Bytes())}); err != nil {
		u.failed++
		return u, err
	}
	return u, nil
}

// checkSweepJob checks the invariants every sweep-traffic job holds for any
// seed: it succeeded, swept at least MinSweeps times, replayed its sweeps
// through the CHERI hierarchy, and re-swept its final image.
func checkSweepJob(jr campaign.JobResult, minSweeps int) error {
	name := fmt.Sprintf("job %d (%s/%s)", jr.Job.ID, jr.Job.Profile, jr.Job.Variant.Name)
	switch {
	case jr.Error != "":
		return fmt.Errorf("%s: %s", name, jr.Error)
	case jr.Stats.Sweeps < uint64(minSweeps):
		return fmt.Errorf("%s: %d sweeps, want at least %d", name, jr.Stats.Sweeps, minSweeps)
	case jr.Traffic == nil || jr.Traffic.Model != campaign.TrafficCHERI:
		return fmt.Errorf("%s: no CHERI traffic report", name)
	case jr.ImageSweepSelf == nil:
		return fmt.Errorf("%s: final image not re-swept", name)
	}
	return nil
}

func (s *sweepTraffic) probe() ([]byte, core.Config) { return s.rep, sweepProbeConfig() }
