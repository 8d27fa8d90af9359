package main

import (
	"cmp"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"repro/internal/obs"
)

// layerValues computes the per-layer metrics of a traced run from its CPU
// profile, its spans, the /metrics scrapes taken around the traced phase,
// and the probe. Metrics of layers the workload does not exercise are 0.
func layerValues(sh cpuShares, spans []span, before, after []obs.Sample, pr probeResult) map[string]value {
	v := map[string]value{}
	set := func(name string, x float64, n int) { v[name] = value{v: x, n: n} }

	for _, l := range slices.Concat(cpuLayers, []string{bucketBench, bucketRuntime}) {
		set(l+".cpu_frac", sh.frac(l), sh.n)
	}
	set("runtime.gc_cpu_frac", ratio(sh.gc, sh.total), sh.n)
	set("trace.attributed_frac", 1-sh.frac(bucketOther), sh.n)

	set("core.malloc_ns", pr.mallocNs, 0)
	set("core.free_ns", pr.freeNs, 0)
	set("mem.store_cap_ns", pr.storeCapNs, 0)
	set("core.revoke_ms", pr.revokeMs, 0)
	set("revoke.sweep_ns_per_page", pr.sweepNsPerPage, probeReps)
	set("revoke.traffic_sweep_ns_per_page", pr.trafficSweepNsPerPage, probeReps)
	set("revoke.pages_swept", float64(pr.pagesSwept), 0)
	set("revoke.caps_revoked", float64(pr.capsRevoked), 0)
	set("revoke.pages_skipped_frac", pr.pagesSkippedFrac, 0)
	set("workload.decode_mib_per_s", pr.decodeMiBPerS, probeReps)

	for _, st := range figureSteps {
		d := durationsMs(spans, "experiment."+st.name)
		set("experiments."+st.name+"_s", mean(d)/1000, len(d))
	}
	jobs := durationsMs(spans, "job")
	set("campaign.jobs_executed", float64(len(jobs)), 0)
	set("campaign.job_ms_p50", median(jobs), len(jobs))
	set("campaign.job_ms_max", slices.Max(append(jobs, 0)), len(jobs))
	set("campaign.pool_idle_frac", poolIdleFrac(spans), len(jobs))

	for _, name := range []string{"submit", "wait", "results"} {
		d := durationsMs(spans, name)
		set("client."+name+"_ms_p50", median(d), len(d))
	}
	for _, kind := range []string{"cold", "warm"} {
		d := durationsMs(spans, "campaign."+kind)
		set("client."+kind+"_ms_p50", median(d), len(d))
		t, label := tail(d)
		v["client."+kind+"_ms_tail"] = value{v: t, n: len(d), note: label}
	}
	send := durationsMs(spans, "send")
	set("client.send_s", median(send)/1000, len(send))
	finish := durationsMs(spans, "finish")
	set("client.finish_ms", median(finish), len(finish))
	streams := durationsMs(spans, "stream")
	set("client.stream_ms_p50", median(streams), len(streams))
	t, label := tail(streams)
	v["client.stream_ms_tail"] = value{v: t, n: len(streams), note: label}

	d := func(name, label, val string) float64 {
		return sumWhere(after, name, label, val) - sumWhere(before, name, label, val)
	}
	meanMs := func(hist, label, val string) float64 {
		return 1000 * ratio(d(hist+"_sum", label, val), d(hist+"_count", label, val))
	}
	for _, r := range serverRoutes {
		set("server.request_ms_mean."+r.suffix, meanMs("cherivoke_http_request_seconds", "route", r.pattern), int(d("cherivoke_http_request_seconds_count", "route", r.pattern)))
	}
	for _, op := range storeOps {
		set("engine.store_ms_mean."+op, meanMs("cherivoke_engine_store_seconds", "op", op), int(d("cherivoke_engine_store_seconds_count", "op", op)))
	}
	hits, misses := d("cherivoke_engine_cache_hits_total", "", ""), d("cherivoke_engine_cache_misses_total", "", "")
	set("engine.cache_hit_frac", ratio(hits, hits+misses), int(hits+misses))
	set("engine.lease_wait_ms_sum", 1000*d("cherivoke_engine_lease_wait_seconds_sum", "", ""), 0)
	rh, rm := d("cherivoke_store_readcache_hits_total", "", ""), d("cherivoke_store_readcache_misses_total", "", "")
	set("store.readcache_hit_frac", ratio(rh, rh+rm), int(rh+rm))
	executed := d(obs.MetricJobsExecuted, "", "")
	set("store.fsyncs_per_job", ratio(d("cherivoke_store_fsyncs_total", "", ""), executed), int(executed))
	set("store.batch_size_mean", ratio(d("cherivoke_store_batch_size_sum", "", ""), d("cherivoke_store_batch_size_count", "", "")), 0)
	set("campaign.job_wall_ms_mean", meanMs("cherivoke_job_wall_seconds", "", ""), int(d("cherivoke_job_wall_seconds_count", "", "")))
	set("dispatch.ok", d("cherivoke_dispatch_jobs_total", "outcome", "ok"), 0)
	set("dispatch.errors", d("cherivoke_dispatch_jobs_total", "outcome", "error")+d("cherivoke_dispatch_jobs_total", "outcome", "rejected"), 0)
	set("dispatch.reassigned", d("cherivoke_dispatch_reassigned_total", "", ""), 0)
	set("dispatch.local_fallbacks", d("cherivoke_dispatch_local_fallback_total", "", ""), 0)
	set("live.windows", d("cherivoke_live_windows_total", "", ""), 0)
	set("live.backpressure_stalls", d("cherivoke_live_backpressure_stalls_total", "", ""), 0)
	set("live.dropped_windows", d("cherivoke_live_dropped_windows_total", "", ""), 0)
	return v
}

// sumWhere adds up the samples called name, restricted to those whose label
// has value val when label is not empty.
func sumWhere(samples []obs.Sample, name, label, val string) float64 {
	total := 0.0
	for _, s := range samples {
		if s.Name == name && (label == "" || s.Labels[label] == val) {
			total += s.Value
		}
	}
	return total
}

// poolIdleFrac is the share of the campaign pools' worker time spent with no
// job: each campaign span offers min(poolWorkers, its jobs) workers for its
// duration, and its job spans are the busy time.
func poolIdleFrac(spans []span) float64 {
	jobs := map[int64][]span{}
	for _, s := range spans {
		if s.Name == "job" {
			jobs[s.Parent] = append(jobs[s.Parent], s)
		}
	}
	var busy, capacity float64
	for _, s := range spans {
		if s.Name != "campaign" || len(jobs[s.ID]) == 0 {
			continue
		}
		for _, j := range jobs[s.ID] {
			busy += j.ms()
		}
		capacity += float64(min(poolWorkers, len(jobs[s.ID]))) * s.ms()
	}
	if capacity == 0 {
		return 0
	}
	return 1 - busy/capacity
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	total := 0.0
	for _, x := range xs {
		total += x
	}
	return total / float64(len(xs))
}

// writeLayers writes a workload's layer table to dir/<workload>.layers.txt
// and rebuilds dir/layers.txt from every workload's table present there.
func writeLayers(dir, workload string, sh cpuShares, vals map[string]value) error {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\nCPU by package (%d samples, %.2f s):\n", workload, sh.n, sh.total/1e9)
	buckets := sortedKeys(sh.by)
	slices.SortStableFunc(buckets, func(a, c string) int { return cmp.Compare(sh.by[c], sh.by[a]) })
	for _, k := range buckets {
		fmt.Fprintf(&b, "  %-12s %6.2f%%\n", k, 100*sh.frac(k))
	}
	b.WriteString("Per-layer metrics:\n")
	for _, d := range perLayer {
		fmt.Fprintf(&b, "  %-40s %14.6g %s %s\n", d.name, vals[d.name].v, d.unit, vals[d.name].note)
	}
	if err := os.WriteFile(filepath.Join(dir, workload+".layers.txt"), []byte(b.String()), 0o644); err != nil {
		return err
	}
	var all []byte
	for _, w := range workloads {
		if t, err := os.ReadFile(filepath.Join(dir, w.name+".layers.txt")); err == nil {
			all = append(append(all, t...), '\n')
		}
	}
	return os.WriteFile(filepath.Join(dir, "layers.txt"), all, 0o644)
}
