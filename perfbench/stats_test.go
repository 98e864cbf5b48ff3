package main

import (
	"math"
	"testing"
)

// highestTail returns the highest of the candidate percentiles that keeps
// at least minTailSamples samples beyond it at n samples, or 0 if none
// does.
func highestTail(n int) float64 {
	for _, p := range []float64{99.9, 99, 90} {
		if samplesBeyond(n, p) >= minTailSamples {
			return p
		}
	}
	return 0
}

func TestTailRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		ok   bool
		hint string
	}{
		{1000, 99, true, "exactly ten beyond p99"},
		{999, 99, false, "nine beyond p99"},
		{100, 90, true, "ten beyond p90: the batch floor"},
		{99, 90, false, "nine beyond p90"},
		{20000, 99, true, "a kv run"},
	} {
		if err := checkTail(c.n, c.p); (err == nil) != c.ok {
			t.Errorf("%s: checkTail(%d, %g) = %v", c.hint, c.n, c.p, err)
		}
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{10000, 99.9}, {9999, 99}, {1000, 99}, {999, 90}, {100, 90}, {99, 0}} {
		if got := highestTail(c.n); got != c.want {
			t.Errorf("highestTail(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	// The fixed tails are the highest the rule allows at each workload's
	// smallest run: 110 jobs on batch-hops, a few thousand requests on kv.
	if got := highestTail(110); got != 90 {
		t.Errorf("batch-hops tail at 110 jobs = p%g, want p90", got)
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4), which judges the benchmark's spread.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.5, 1.25, 9, 2}, [3]float64{1.4375, 2.75, 7.625}},
		{[]float64{5, 7}, [3]float64{4.5, 6, 7.5}},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110}, [3]float64{30, 60, 90}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		for i, got := range []float64{q1, q2, q3} {
			if math.Abs(got-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v)[%d] = %g, want %g", c.xs, i, got, c.want[i])
			}
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 3}, {100, 5}, {25, 2}, {90, 4.6}} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%g) = %g, want %g", c.p, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
}

func TestVerdict(t *testing.T) {
	a := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	b := []float64{120, 121, 119, 120, 122, 118, 120, 121, 119, 120}
	if v, _ := verdict(a, a, true, 0.1); v != "within" {
		t.Errorf("a vs a: %s", v)
	}
	if v, _ := verdict(a, b, true, 0.1); v != "worse" {
		t.Errorf("latency up 20%%: %s", v)
	}
	if v, _ := verdict(a, b, false, 0.1); v != "better" {
		t.Errorf("throughput up 20%%: %s", v)
	}
	wide := []float64{50, 150, 60, 140, 100, 70, 130, 80, 120, 100}
	if v, _ := verdict(a, wide, true, 0.1); v != "unresolved" {
		t.Errorf("wide spread: %s", v)
	}
}
