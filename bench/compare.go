package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
)

// benchmarkSpec is the part of BENCHMARK.json the benchmark reads: its run
// length, workloads, and metrics with their regression bounds.
type benchmarkSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (benchmarkSpec, error) {
	var s benchmarkSpec
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// minPairs is the fewest parent/change pairs a verdict may rest on.
const minPairs = 10

// Verdicts.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	regressed  = "regressed"
	unresolved = "unresolved"
)

// comparison is one metric's parent and change samples, summarised.
type comparison struct {
	parentMed, parentQ1, parentQ3 float64
	changeMed, changeQ1, changeQ3 float64
	wins, pairs                   int
	verdict                       string
}

// compareMetric judges paired samples (parent[i] ran next to change[i]):
//
//   - improved: the change wins at least 9 of 10 pairs, ties counting for
//     neither, and the medians differ in its favour by more than the
//     parent's interquartile range;
//   - regressed: the change's median is worse than the parent's by more
//     than bound, a share of the parent's median;
//   - unresolved: neither, and either side's spread (interquartile range
//     over median) is wider than bound, unless every change run beats every
//     parent run;
//   - unchanged: otherwise.
func compareMetric(parent, change []float64, higherBetter bool, bound float64) comparison {
	c := comparison{pairs: min(len(parent), len(change)), verdict: unresolved}
	if c.pairs == 0 {
		return c
	}
	c.parentMed, c.changeMed = median(parent), median(change)
	c.parentQ1, c.parentQ3 = quartiles(parent)
	c.changeQ1, c.changeQ3 = quartiles(change)
	better := func(a, b float64) bool {
		if higherBetter {
			return a > b
		}
		return a < b
	}
	for i := range c.pairs {
		if better(change[i], parent[i]) {
			c.wins++
		}
	}
	worse := ratio(c.changeMed-c.parentMed, math.Abs(c.parentMed))
	if higherBetter {
		worse = -worse
	}
	spread := max(ratio(c.parentQ3-c.parentQ1, math.Abs(c.parentMed)), ratio(c.changeQ3-c.changeQ1, math.Abs(c.changeMed)))
	allBetter := higherBetter && slices.Min(change) > slices.Max(parent) ||
		!higherBetter && slices.Max(change) < slices.Min(parent)
	switch {
	case 10*c.wins >= 9*c.pairs && better(c.changeMed, c.parentMed) &&
		math.Abs(c.changeMed-c.parentMed) > c.parentQ3-c.parentQ1:
		c.verdict = improved
	case worse > bound:
		c.verdict = regressed
	case spread > bound && !allBetter:
		c.verdict = unresolved
	default:
		c.verdict = unchanged
	}
	return c
}

// compareCmd implements `bench compare PARENT... -- CHANGE...`: each file
// is one run's output, the parent's and the change's runs given in the
// order they alternated. For every workload and end-to-end metric it prints
// both sides' median and quartiles, the change's win count and a verdict. It
// exits 1 when any metric regressed.
func compareCmd(args []string, stdout, stderr io.Writer) int {
	sep := slices.Index(args, "--")
	if sep < 0 {
		fmt.Fprintln(stderr, "usage: bench compare PARENT.out... -- CHANGE.out...")
		return 2
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(stderr, "bench compare:", err)
		return 2
	}
	parent, err := readRuns(args[:sep])
	if err == nil {
		var change map[string][]result
		if change, err = readRuns(args[sep+1:]); err == nil {
			return printComparison(stdout, spec, parent, change)
		}
	}
	fmt.Fprintln(stderr, "bench compare:", err)
	return 2
}

// readRuns reads run outputs, grouping their results by workload in
// argument order.
func readRuns(paths []string) (map[string][]result, error) {
	out := map[string][]result{}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		w, res, err := parseRun(b)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		out[w] = append(out[w], res)
	}
	return out, nil
}

func printComparison(w io.Writer, spec benchmarkSpec, parent, change map[string][]result) int {
	status := 0
	fmt.Fprintf(w, "%-17s %-17s %-38s %-38s %-6s %s\n", "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins", "verdict")
	for _, wl := range spec.Workloads {
		p, c := parent[wl.Name], change[wl.Name]
		if len(p) == 0 && len(c) == 0 {
			continue
		}
		if len(p) != len(c) || len(p) < minPairs {
			fmt.Fprintf(w, "%-17s needs %d or more pairs of runs, has %d parent and %d change runs\n", wl.Name, minPairs, len(p), len(c))
			status = 2
			continue
		}
		for _, m := range spec.EndToEnd {
			cmp := compareMetric(values(p, m.Name), values(c, m.Name), m.Better == "higher", m.Bound)
			fmt.Fprintf(w, "%-17s %-17s %-38s %-38s %-6s %s\n", wl.Name, m.Name,
				fmt.Sprintf("%.5g [%.5g, %.5g]", cmp.parentMed, cmp.parentQ1, cmp.parentQ3),
				fmt.Sprintf("%.5g [%.5g, %.5g]", cmp.changeMed, cmp.changeQ1, cmp.changeQ3),
				fmt.Sprintf("%d/%d", cmp.wins, cmp.pairs), cmp.verdict)
			if cmp.verdict == regressed && status == 0 {
				status = 1
			}
		}
	}
	return status
}

func values(runs []result, metric string) []float64 {
	out := make([]float64, len(runs))
	for i, r := range runs {
		out[i] = r.Metrics[metric].Value
	}
	return out
}
