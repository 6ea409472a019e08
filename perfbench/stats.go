package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or NaN for an empty sample. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// minBeyond is how many samples must lie above a reported tail percentile.
const minBeyond = 10

// tail returns the highest whole percentile p (nearest-rank) that still
// has at least minBeyond samples beyond it, with its value. A sample too
// small to have any such percentile reports p = 0 and the maximum, so the
// caller can print that no tail was resolved.
func tail(xs []float64) (p int, v float64) {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return 0, math.NaN()
	}
	for p = 99; p >= 1; p-- {
		rank := int(math.Ceil(float64(p) * float64(n) / 100))
		if rank < 1 {
			rank = 1
		}
		if n-rank >= minBeyond {
			return p, s[rank-1]
		}
	}
	return 0, s[n-1]
}
