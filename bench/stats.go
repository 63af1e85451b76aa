package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of an ascending slice by
// linear interpolation between the two closest ranks. An empty slice gives 0.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// quiet is the fastest sample: the estimator of the traced run's stage and
// probe times, which compare layers inside one run and are not gated. On this
// host interference only ever adds time, so the fastest of many samples is
// the one least disturbed. The end-to-end timings are medians at the host's
// reference speed instead (atRefSpeed; README, "Why reference speed").
func quiet(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	m := v[0]
	for _, x := range v[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

func p10(v []float64) float64 { return quantile(sorted(v), 0.10) }

func median(v []float64) float64 { return quantile(sorted(v), 0.50) }

// spread is the interquartile distance as a share of the median, with the
// quartiles Python's statistics.quantiles(v, n=4) gives (exclusive method):
// the number the driver holds each end-to-end metric's bound against.
func spread(v []float64) float64 {
	s := sorted(v)
	n := len(s)
	if n < 2 {
		return 0
	}
	at := func(k int) float64 { // k-th quartile, exclusive method
		pos := float64(k)*float64(n+1)/4 - 1
		lo := int(math.Floor(pos))
		if lo < 0 {
			return s[0]
		}
		if lo >= n-1 {
			return s[n-1]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	med := quantile(s, 0.5)
	if med == 0 {
		return 0
	}
	return (at(3) - at(1)) / math.Abs(med)
}
