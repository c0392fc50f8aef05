package main

import (
	"math"
	"sort"
)

// sortedCopy returns xs sorted ascending, leaving xs alone.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile is the nearest-rank q-quantile of an ascending slice (0 when
// empty).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// spread is (max−min)/median; 0 for fewer than two samples or a zero
// median.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := sortedCopy(xs)
	m := median(s)
	if m == 0 {
		return 0
	}
	return (s[len(s)-1] - s[0]) / m
}

// tailQuantile is the highest whole percentile, at most the 99th, that
// still has at least ten of n samples beyond it — the "p99" the guide asks
// for, which only is the 99th once a window holds 1000 samples. Below twenty
// samples no percentile qualifies and the slowest sample stands in
// (forkjoin-paper's three cycles per repetition).
func tailQuantile(n int) float64 {
	if n < 20 {
		return 1
	}
	q := math.Floor(100*float64(n-10)/float64(n)) / 100
	return math.Min(q, 0.99)
}

// interquartileMean is the mean of what is left of xs after the lowest and
// the highest quarter are dropped: it ignores outliers like a median and
// moves smoothly between two clusters like a mean.
func interquartileMean(xs []float64) float64 {
	s := sortedCopy(xs)
	mid := s[len(s)/4 : len(s)-len(s)/4]
	return ratio(sum(mid), float64(len(mid)))
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var l float64
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		l += math.Log(x)
	}
	return math.Exp(l / float64(len(xs)))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
