package main

import (
	"math"
	"slices"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between the two nearest order statistics (position
// q·(n−1), the "type 7" rule). xs need not be sorted; it is not
// modified. An empty xs yields NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

// rank returns the nearest-rank q-quantile of an ascending sample: the
// smallest element with at least q·n of the sample at or below it.
func rank(sorted []int64, q float64) int64 {
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// beyond is how many of n samples lie strictly above the nearest-rank
// q-quantile; it is printed beside every percentile, which is to be
// trusted with at least ten.
func beyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}

// best is the window estimator: the best of the per-window values —
// the lowest, or the highest of a rate.
//
// On one core nothing a neighbour does makes a window faster, and a
// window's own statistic (a median over thousands of calls, or a rate
// over thousands of messages) is tight, so the best window is the code
// and every other one is the code plus the neighbours. On the shared VM
// the bounds were calibrated on, interference comes in bursts of
// milliseconds to minutes that slow a window by up to half, and during
// a long episode as few as one window in two hundred falls between
// them. Measured over ten runs of xproc_payload in such an episode
// (median window 50 % above the best): the best window's p50 ranged
// 6 % between runs, the best fiftieth's 35 %, the decile's 37 %.
func best(xs []float64, higherIsBetter bool) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	if higherIsBetter {
		return slices.Max(xs)
	}
	return slices.Min(xs)
}

// disturbance is how far the median window sits from the best one, as
// a share of the latter: near 0 on a quiet box, large when neighbour
// bursts covered half the run.
func disturbance(xs []float64) float64 {
	return quantile(xs, 0.5)/best(xs, false) - 1
}
