package main

import (
	"math"
	"sort"

	"repro/internal/stats"
)

// median returns the middle value of xs (the mean of the middle two for an
// even count), and 0 rather than NaN for no samples: a layer that a
// workload never calls reports 0.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Quantile(xs, 0.5)
}

// quartiles returns the first and third quartile of xs exactly as Python's
// statistics.quantiles(xs, n=4) does (the default "exclusive" method), so
// the spreads -selfcheck prints are the ones the acceptance driver
// computes; nothing a run reports goes through it (internal/stats.Quantile
// interpolates differently). It needs at least two samples; fewer return
// (0, 0).
func quartiles(xs []float64) (q1, q3 float64) {
	if len(xs) < 2 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile distance of xs as a share of its median —
// the run-to-run noise figure every bound is judged against.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	if m := median(xs); m != 0 {
		return (q3 - q1) / math.Abs(m)
	}
	return 0
}
