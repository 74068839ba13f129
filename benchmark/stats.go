package main

import (
	"sort"

	"pipette/internal/stats"
)

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile interpolates the way Python's statistics.quantiles does with its
// default exclusive method: position p*(n+1) in the sorted 1-based samples,
// clamped to the ends. The benchmark's driver computes spreads with that
// function, so README recipes and -aa output agree with it.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	pos := p*float64(len(s)+1) - 1
	if pos <= 0 {
		return s[0]
	}
	if pos >= float64(len(s)-1) {
		return s[len(s)-1]
	}
	lo := int(pos)
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartiles returns the first quartile, median and third quartile.
func quartiles(xs []float64) (q1, med, q3 float64) {
	return quantile(xs, 0.25), quantile(xs, 0.5), quantile(xs, 0.75)
}

// tailPercent is the choosing-metrics rule for a tail figure: the highest
// percentile, no higher than want, that still has at least ten samples
// beyond it. With fewer than twenty samples nothing above the median
// qualifies and the median is reported.
func tailPercent(n int, want float64) float64 {
	if n < 20 {
		return 50
	}
	if p := 100 * (1 - 10/float64(n)); p < want {
		return p
	}
	return want
}

// tail returns the tailPercent(len(xs), want) percentile of xs and the
// percentile actually used.
func tail(xs []float64, want float64) (value, pct float64) {
	pct = tailPercent(len(xs), want)
	return quantile(xs, pct/100), pct
}

// geomean is the geometric mean of strictly positive values; 0 when xs is
// empty or holds a non-positive value.
func geomean(xs []float64) float64 {
	g, _ := stats.Gmean(xs) // its error cases return 0, which is what a broken metric should read
	return g
}

// ratio is a/b, 0 when b is 0 (counts that do not apply to a workload).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
