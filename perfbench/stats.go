package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartile returns the lower quartile of xs (nearest rank), or NaN for
// an empty slice. The summary gives it next to the median time to first
// tuple, which on path_stream flips between runs: about 45% of runs
// start with a server GC (the run's up-front allocation against the GC
// headroom), so the median sits on the boundary between a ~0.4 ms and a
// 2-5 ms mode, while the lower quartile stays in the fast mode.
func quartile(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	return s[(len(s)+3)/4-1]
}

// tail is the highest percentile of a sample set that still has at
// least tailBeyond samples above it.
type tail struct {
	Value  float64 `json:"value"`
	Pct    int     `json:"pct"`    // the percentile (nearest-rank)
	Beyond int     `json:"beyond"` // samples strictly after it in rank order
	N      int     `json:"n"`
}

// tailBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const tailBeyond = 10

// tailPercentile applies the tail rule: the highest integer percentile
// p whose nearest-rank sample (index ceil(p·n/100)-1 of the sorted
// samples) has at least tailBeyond samples after it. With too few
// samples for any such percentile it falls back to the maximum and
// reports Pct 100 with the (short) count beyond it as zero.
func tailPercentile(xs []float64) tail {
	n := len(xs)
	if n == 0 {
		return tail{Value: math.NaN()}
	}
	s := sortedCopy(xs)
	p := 100 * (n - tailBeyond) / n
	if p < 1 {
		return tail{Value: s[n-1], Pct: 100, N: n}
	}
	idx := (p*n+99)/100 - 1
	return tail{Value: s[idx], Pct: p, Beyond: n - 1 - idx, N: n}
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
