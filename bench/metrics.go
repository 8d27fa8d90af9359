package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
)

// metricDef names one reported metric and its unit. The bounds and
// directions live in BENCHMARK.json; TestMetricsMatchBenchmarkJSON keeps
// these lists and that file equal.
type metricDef struct {
	name, unit string
}

// endToEnd is what a user of each workload sees, measured with tracing off.
// A workload's unit is its repeating piece of work (see workloads in
// main.go).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"units_per_s", "1/s"},
	{"unit_p50_ms", "ms"},
	{"peak_rss_mib", "MiB"},
}

// cpuLayers are the repository's modules, in pipeline order. A traced run
// charges each CPU sample to the innermost of these packages on its stack.
var cpuLayers = []string{
	"cap", "mem", "alloc", "quarantine", "shadow", "revoke", "sim", "core",
	"workload", "campaign", "experiments", "engine", "server", "livetrace", "obs",
}

// serverRoutes maps the server's route patterns to metric-name suffixes.
var serverRoutes = []struct{ pattern, suffix string }{
	{"POST /campaigns", "post_campaigns"},
	{"GET /campaigns/{id}/events", "get_campaign_events"},
	{"GET /campaigns/{id}/results", "get_campaign_results"},
	{"POST /internal/jobs", "post_internal_jobs"},
	{"POST /live", "post_live"},
}

// storeOps are the engine store operations timed per call: the first five
// are the cold (write) path, get_job the warm (read) path. (Results are
// served from the engine's memory, so get_result never reaches the store.)
var storeOps = []string{"put_job", "create_campaign", "acquire_lease", "publish_job", "put_result", "get_job"}

// perLayer lists the traced run's metrics. Metrics of a layer a workload
// does not exercise read 0 on it (no HTTP routes in figures, say).
var perLayer = func() []metricDef {
	var out []metricDef
	for _, l := range slices.Concat(cpuLayers, []string{bucketBench, bucketRuntime}) {
		out = append(out, metricDef{l + ".cpu_frac", "frac"})
	}
	out = append(out,
		metricDef{"runtime.gc_cpu_frac", "frac"},
		metricDef{"runtime.alloc_mib", "MiB"},
		metricDef{"trace.attributed_frac", "frac"},
		metricDef{"trace.overhead_frac", "frac"},
		metricDef{"core.events_per_unit", "count"},
		metricDef{"revoke.swept_mib_per_unit", "MiB"},

		metricDef{"core.malloc_ns", "ns"},
		metricDef{"core.free_ns", "ns"},
		metricDef{"mem.store_cap_ns", "ns"},
		metricDef{"core.revoke_ms", "ms"},
		metricDef{"revoke.sweep_ns_per_page", "ns"},
		metricDef{"revoke.traffic_sweep_ns_per_page", "ns"},
		metricDef{"revoke.pages_swept", "count"},
		metricDef{"revoke.caps_revoked", "count"},
		metricDef{"revoke.pages_skipped_frac", "frac"},
		metricDef{"workload.decode_mib_per_s", "MiB/s"},
	)
	for _, s := range figureSteps {
		out = append(out, metricDef{"experiments." + s.name + "_s", "s"})
	}
	out = append(out,
		metricDef{"campaign.jobs_executed", "count"},
		metricDef{"campaign.job_ms_p50", "ms"},
		metricDef{"campaign.job_ms_max", "ms"},
		metricDef{"campaign.pool_idle_frac", "frac"},

		metricDef{"client.submit_ms_p50", "ms"},
		metricDef{"client.wait_ms_p50", "ms"},
		metricDef{"client.results_ms_p50", "ms"},
		metricDef{"client.cold_ms_p50", "ms"},
		metricDef{"client.cold_ms_tail", "ms"},
		metricDef{"client.warm_ms_p50", "ms"},
		metricDef{"client.warm_ms_tail", "ms"},
	)
	for _, r := range serverRoutes {
		out = append(out, metricDef{"server.request_ms_mean." + r.suffix, "ms"})
	}
	for _, op := range storeOps {
		out = append(out, metricDef{"engine.store_ms_mean." + op, "ms"})
	}
	out = append(out,
		metricDef{"engine.cache_hit_frac", "frac"},
		metricDef{"engine.lease_wait_ms_sum", "ms"},
		metricDef{"store.readcache_hit_frac", "frac"},
		metricDef{"store.fsyncs_per_job", "fsyncs/job"},
		metricDef{"store.batch_size_mean", "count"},
		metricDef{"campaign.job_wall_ms_mean", "ms"},
		metricDef{"dispatch.ok", "count"},
		metricDef{"dispatch.errors", "count"},
		metricDef{"dispatch.reassigned", "count"},
		metricDef{"dispatch.local_fallbacks", "count"},

		metricDef{"client.send_s", "s"},
		metricDef{"client.finish_ms", "ms"},
		metricDef{"client.stream_ms_p50", "ms"},
		metricDef{"client.stream_ms_tail", "ms"},
		metricDef{"live.windows", "count"},
		metricDef{"live.backpressure_stalls", "count"},
		metricDef{"live.dropped_windows", "count"},
	)
	return out
}()

// value is one measured metric and the number of samples it was computed
// from (printed, not part of the result line).
type value struct {
	v    float64
	n    int
	note string // e.g. which percentile a tail metric is
}

// result is one run's outcome. Its JSON form is the run's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints the human-readable metric table and then the result line.
// Only the metrics of defs are reported, in defs' order; a def missing from
// vals is a bug and reads as 0.
func report(w io.Writer, defs []metricDef, vals map[string]value, attempted, failed int, errs []error) result {
	res := result{Correct: len(errs) == 0 && failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v := vals[d.name]
		if math.IsNaN(v.v) || math.IsInf(v.v, 0) {
			// A JSON result line cannot carry them; a non-finite value
			// is a measurement bug, so the run is not correct.
			errs = append(errs, fmt.Errorf("metric %s is %v", d.name, v.v))
			res.Correct = false
			v.v = 0
		}
		res.Metrics[d.name] = metricValue{Value: v.v, Unit: d.unit}
		extra := ""
		if v.n > 0 {
			extra = fmt.Sprintf("n=%d", v.n)
		}
		if v.note != "" {
			extra = strings.TrimSpace(v.note + " " + extra)
		}
		fmt.Fprintf(w, "  %-44s %16.6g %-10s %s\n", d.name, v.v, d.unit, extra)
	}
	for _, err := range errs {
		fmt.Fprintf(w, "  FAIL: %v\n", err)
	}
	fmt.Fprintf(w, "  attempted %d, failed %d, correct %v\n", attempted, failed, res.Correct)
	line, _ := json.Marshal(res) // every value is finite, so this cannot fail
	fmt.Fprintln(w, string(line))
	return res
}
