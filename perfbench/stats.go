package main

import (
	"math"
	"sort"
	"time"
)

// quartiles returns the first quartile, the median and the third quartile of
// xs by exactly the rule of Python's statistics.quantiles(xs, n=4) (the
// "exclusive" method, which extrapolates past the extremes of small samples),
// so spreads printed here match the ones computed from the printed values.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	const n = 4
	ld := len(s)
	m := ld + 1
	var q [n - 1]float64
	for i := 1; i < n; i++ {
		j := min(max(i*m/n, 1), ld-1)
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2]
}

// median is the middle value of xs (the mean of the two middle values for an
// even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank percentile p (0-100) of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// reportable reports whether n samples leave at least ten beyond percentile
// p, the rule every latency percentile this benchmark prints obeys.
func reportable(n int, p float64) bool {
	return float64(n)*(1-p/100) >= 10
}

// msOf converts a duration to fractional milliseconds.
func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
