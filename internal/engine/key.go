package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"

	"repro/internal/campaign"
	"repro/internal/revoke"
)

// jobKeyVersion versions the key schema. Bump it whenever keyPayload, the
// job semantics, or the measurement pipeline changes what a stored result
// means, so stale entries become unreachable instead of being served for
// new-world jobs.
const jobKeyVersion = 1

// keyPayload is the canonical form hashed into a job key: every input that
// determines a JobResult, and nothing that merely schedules it. Worker
// counts and Spec.TraceWindow are absent (they never change results), the
// job's expansion ID is absent (two campaigns may place the same job at
// different IDs), and the trace ref is replaced by the resolved content
// hash (a prefix ref and the full hash name the same bytes). The variant is
// included whole — its name is part of the artifact, and its revoke config
// (kernel, assists, shard width, laundering) changes measured or priced
// values; revoke.Config.Hierarchy is runtime state excluded from JSON, so
// it cannot leak in.
type keyPayload struct {
	Version int `json:"v"`

	Profile      string           `json:"profile"`
	Variant      campaign.Variant `json:"variant"`
	Fraction     float64          `json:"fraction"`
	Seed         uint64           `json:"seed"`
	MaxLiveBytes uint64           `json:"max_live_bytes"`

	MinSweeps          int    `json:"min_sweeps"`
	MaxEvents          int    `json:"max_events"`
	QuarantineMinBytes uint64 `json:"quarantine_min_bytes"`
	ScaledStartup      bool   `json:"scaled_startup"`
	Baseline           bool   `json:"baseline"`
	Traffic            string `json:"traffic"`
	TraceHash          string `json:"trace_hash"`

	ImageSweeps    []revoke.Config `json:"image_sweeps"`
	SweepImageSelf bool            `json:"sweep_image_self"`
}

// JobKey returns the content hash that identifies job's result: the hex
// SHA-256 of the canonical keyPayload serialisation. spec supplies the
// spec-level fields that shape every job (the image-sweep plan); it is the
// normalised spec as campaign.Run hands it to cache hooks. traceHash is the
// full content hash of the trace a TraceRef job replays ("" for generated
// workloads) — callers resolve it once per campaign so the key names exact
// input bytes, not a ref spelling.
//
// An empty image-sweep list hashes as an absent one: Spec.ImageSweeps is
// omitempty, so a spec crossing the JSON coordinator→worker hop loses an
// empty list, and the key must not change with it.
func JobKey(spec campaign.Spec, job campaign.Job, traceHash string) string {
	if len(spec.ImageSweeps) == 0 {
		spec.ImageSweeps = nil
	}
	payload := keyPayload{
		Version:            jobKeyVersion,
		Profile:            job.Profile,
		Variant:            job.Variant,
		Fraction:           job.Fraction,
		Seed:               job.Seed,
		MaxLiveBytes:       job.MaxLiveBytes,
		MinSweeps:          job.MinSweeps,
		MaxEvents:          job.MaxEvents,
		QuarantineMinBytes: job.QuarantineMinBytes,
		ScaledStartup:      job.ScaledStartup,
		Baseline:           job.Baseline,
		Traffic:            job.Traffic,
		TraceHash:          traceHash,
		ImageSweeps:        spec.ImageSweeps,
		SweepImageSelf:     spec.SweepImageSelf,
	}
	b, err := json.Marshal(payload)
	if err != nil {
		// keyPayload is plain data; Marshal cannot fail on it.
		panic("engine: marshalling job key: " + err.Error())
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
