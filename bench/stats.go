package main

import (
	"fmt"
	"math"
	"slices"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count), 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(xs))
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs by the "exclusive"
// method of Python's statistics.quantiles(xs, n=4), the definition the
// benchmark's stability rule is stated in. One value is its own quartiles.
func quartiles(xs []float64) (q1, q3 float64) {
	s := slices.Sorted(slices.Values(xs))
	switch len(s) {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	ld := len(s)
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}

// percentile returns the p-quantile (0 ≤ p ≤ 1) of xs, interpolating
// linearly between order statistics.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(xs))
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailLadder is the set of tail percentiles a latency may be reported at,
// in per-mille so the labels print exactly.
var tailLadder = []int{500, 750, 900, 950, 990, 999}

// tailPermille picks the highest percentile of tailLadder that leaves at
// least ten samples beyond it among n, so a tail is never read off a
// handful of outliers. Below 20 samples it falls back to the median.
func tailPermille(n int) int {
	best := tailLadder[0]
	for _, p := range tailLadder {
		if n*(1000-p) >= 10*1000 {
			best = p
		}
	}
	return best
}

// tail returns xs at tailPermille(len(xs)) and that percentile's label,
// e.g. "p99".
func tail(xs []float64) (float64, string) {
	p := tailPermille(len(xs))
	return percentile(xs, float64(p)/1000), fmt.Sprintf("p%g", float64(p)/10)
}
