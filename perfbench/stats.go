package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile:
// a tail figure resting on fewer is one or two unlucky samples, not a
// percentile.
const minBeyond = 10

// Dist summarizes one set of timings: the median, the tail at the highest
// percentile (up to the requested one) that keeps minBeyond samples above
// it, and the count both rest on.
type Dist struct {
	N       int     `json:"n"`
	P50     float64 `json:"p50"`
	Tail    float64 `json:"tail"`
	TailPct float64 `json:"tail_pct"`
	Beyond  int     `json:"beyond"`
	Mean    float64 `json:"mean"`
	Min     float64 `json:"min"`
	Max     float64 `json:"max"`
}

// tailLevel returns the highest percentile <= want with at least
// minBeyond of n samples strictly above its nearest-rank position, never
// below the median. With n <= 2*minBeyond the median is all the samples
// support, and the tail reads as the median.
func tailLevel(n int, want float64) float64 {
	if n <= 0 {
		return 50
	}
	q := 100 * float64(n-minBeyond) / float64(n)
	// Round down to a tenth of a percent so the level prints cleanly and
	// stays on the safe side of the rule.
	q = math.Floor(q*10) / 10
	return math.Max(50, math.Min(want, q))
}

// nearestRank returns the nearest-rank percentile q of sorted samples.
func nearestRank(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	k := int(math.Ceil(q / 100 * float64(len(sorted))))
	k = min(max(k, 1), len(sorted))
	return sorted[k-1]
}

// summarize applies the percentile rule to samples (left unmodified),
// asking for the want-th percentile as the tail.
func summarize(samples []float64, want float64) Dist {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	d := Dist{N: len(s)}
	if len(s) == 0 {
		return d
	}
	d.P50 = nearestRank(s, 50)
	d.TailPct = tailLevel(len(s), want)
	d.Tail = nearestRank(s, d.TailPct)
	k := int(math.Ceil(d.TailPct / 100 * float64(len(s))))
	d.Beyond = len(s) - min(max(k, 1), len(s))
	var sum float64
	for _, v := range s {
		sum += v
	}
	d.Mean = sum / float64(len(s))
	d.Min, d.Max = s[0], s[len(s)-1]
	return d
}

// median returns the median of samples (left unmodified).
func median(samples []float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// allFinite reports whether every value is neither NaN nor infinite.
func allFinite(vals []float64) bool {
	for _, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}
