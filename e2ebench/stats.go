package main

import (
	"slices"
	"time"
)

// median returns the middle value (the mean of the two middle values for
// an even count), or 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank q-quantile of ds, or 0 for none.
func percentile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	i := int(q*float64(len(s))+0.999999999) - 1
	return s[max(0, min(i, len(s)-1))]
}

// ratio is a / b, or 0 when b is 0 (the metric does not apply).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }
