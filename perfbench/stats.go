package main

import (
	"math"
	"sort"
	"time"
)

// percentile is the p-th percentile (0 < p < 1) of raw samples, by
// linear interpolation between the two nearest order statistics. It
// works on the exact per-request values, never on histogram buckets.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := p * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return sorted[lo] + (sorted[hi]-sorted[lo])*frac
}

// tailOK reports whether a percentile p is supported by n samples: at
// least ten samples must lie beyond it.
func tailOK(n int, p float64) bool {
	return float64(n)*(1-p) >= 10
}

// quartiles returns the first quartile, median and third quartile of
// values with the same method as Python's statistics.quantiles(values,
// n=4) (the default "exclusive" method), so spreads computed here match
// spreads computed from the printed results.
func quartiles(values []float64) (q1, med, q3 float64) {
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	ld := len(data)
	switch ld {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return data[0], data[0], data[0]
	}
	const n = 4
	m := ld + 1
	var out [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		out[i-1] = (data[j-1]*float64(n-delta) + data[j]*float64(delta)) / n
	}
	return out[0], out[1], out[2]
}

func median(values []float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func mean(values []float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

// durs is a set of raw latency samples.
type durs []time.Duration

// ms returns the samples in milliseconds, sorted ascending.
func (d durs) ms() []float64 {
	out := make([]float64, len(d))
	for i, v := range d {
		out[i] = float64(v) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
