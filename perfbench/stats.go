package main

import (
	"fmt"
	"math"
	"sort"
)

// minTailSamples is the tail rule: a reported tail percentile must have at
// least this many samples beyond it, or it describes a handful of outliers
// rather than a tail.
const minTailSamples = 10

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile returns the p-th percentile (0..100) of xs, interpolating
// linearly between the closest ranks. It returns NaN for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// samplesBeyond is how many of n samples lie strictly above the p-th
// percentile.
func samplesBeyond(n int, p float64) int {
	// The epsilon keeps 100-99.9 (not exactly 0.1 in binary) from
	// dropping a whole sample.
	return int(math.Floor(float64(n)*(100-p)/100 + 1e-9))
}

// checkTail enforces the tail rule for the percentile a workload reports.
func checkTail(n int, p float64) error {
	if got := samplesBeyond(n, p); got < minTailSamples {
		return fmt.Errorf("p%g of %d samples has %d beyond it, want at least %d: the run is too short", p, n, got, minTailSamples)
	}
	return nil
}

// quartiles returns the three cut points of xs the way Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method),
// so the compare mode reads spreads exactly as they are judged.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	var out [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		out[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return out[0], out[1], out[2]
}
