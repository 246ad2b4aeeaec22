package main

import (
	"math"
	"sort"
)

// tailPercentiles are the candidate tail percentiles, highest first.
var tailPercentiles = []float64{99, 95, 90}

// minBeyond is how many samples must lie above a percentile before it
// may be reported as the tail.
const minBeyond = 10

// rankIndex is the nearest-rank index of percentile p in n sorted
// samples.
func rankIndex(n int, p float64) int {
	i := int(math.Ceil(float64(n)*p/100)) - 1
	return min(max(i, 0), n-1)
}

// percentile returns the nearest-rank p-th percentile of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rankIndex(len(sorted), p)]
}

// tail is a tail latency with the percentile it was taken at and the
// number of samples beyond that percentile.
type tail struct {
	Value  float64
	P      float64
	Beyond int
	N      int
}

// tailOf applies the tail rule: the highest of p99, p95 and p90 that
// has at least minBeyond samples beyond it. With fewer than 100 samples
// no candidate qualifies and p90 is returned with its (short) count, so
// the printed count shows the tail is under-sampled.
func tailOf(sorted []float64) tail {
	n := len(sorted)
	for _, p := range tailPercentiles {
		beyond := n - 1 - rankIndex(n, p)
		if beyond >= minBeyond {
			return tail{Value: percentile(sorted, p), P: p, Beyond: beyond, N: n}
		}
	}
	p := tailPercentiles[len(tailPercentiles)-1]
	return tail{Value: percentile(sorted, p), P: p, Beyond: max(n-1-rankIndex(n, p), 0), N: n}
}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the nearest-rank median of xs.
func median(xs []float64) float64 {
	return percentile(sortedCopy(xs), 50)
}

// minOf and maxOf return the extremes of xs.
func minOf(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		m = min(m, x)
	}
	return m
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}
