package main

import (
	"math"
	"sort"
)

// quartiles returns the first quartile, median and third quartile of xs
// by the same rule as Python's statistics.quantiles(xs, n=4) (the
// default "exclusive" method), so spreads printed here match the ones an
// outside script computes from the same runs. It needs two values; one
// value is its own three quartiles.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	switch len(xs) {
	case 0:
		return 0, 0, 0
	case 1:
		return xs[0], xs[0], xs[0]
	}
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	ld := len(d)
	m := ld + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// median is the middle quartile.
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// sample is a set of measured durations or counts, summarised by
// nearest-rank percentiles.
type sample []float64

// pct returns the nearest-rank p-th percentile (0 < p ≤ 100): the
// smallest value with at least p% of the sample at or below it. An empty
// sample reads 0.
func (s sample) pct(p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	d := append(sample(nil), s...)
	sort.Float64s(d)
	i := int(math.Ceil(p/100*float64(len(d)))) - 1
	return d[max(0, min(i, len(d)-1))]
}

// percentileLevels are the percentiles the benchmark reports, highest
// first.
var percentileLevels = []float64{99.99, 99.9, 99, 90, 50}

// supportedPercentile is the highest reported percentile that leaves at
// least ten of n samples beyond it; below twenty samples only the
// median is supported.
func supportedPercentile(n int) float64 {
	for _, p := range percentileLevels {
		if float64(n)*(100-p)/100 >= 10-1e-9 {
			return p
		}
	}
	return 50
}

// ratio is a/b, or 0 when b is 0, so a layer the workload never reaches
// reads 0 instead of NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
