package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of the raw samples, exactly:
// the samples are sorted and the value is interpolated linearly between
// the two closest ranks, so the median of an even count is the mean of the
// two middle values. No bucketing — loadgen.Hist's 3 % buckets are what
// parked the old bulk fetch p50 on a power-of-two edge. NaN for no samples.
func quantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// median is the 0.5-quantile.
func median(samples []float64) float64 { return quantile(samples, 0.5) }

// medianOfRounds is the value a run reports for one metric: the median of
// its per-round values, skipping rounds in which the metric was undefined
// (a class that drew no sample in that round).
func medianOfRounds(rounds []float64) float64 {
	var defined []float64
	for _, v := range rounds {
		if !math.IsNaN(v) {
			defined = append(defined, v)
		}
	}
	return median(defined)
}

// tail returns the tail percentile the sample count supports — p99 from
// 1 000 samples up, else p90 — with the percentile it chose.
func tail(samples []float64) (value float64, pct int) {
	if len(samples) >= 1000 {
		return quantile(samples, 0.99), 99
	}
	return quantile(samples, 0.90), 90
}

// spread is (max − min) ÷ median of the values: how far apart the rounds of
// one run landed.
func spread(values []float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	lo, hi := values[0], values[0]
	for _, v := range values {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	return (hi - lo) / median(values)
}
