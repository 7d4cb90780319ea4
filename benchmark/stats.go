package main

// Arithmetic on samples and counters, kept free of I/O so the unit
// tests can pin it.

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 < p <= 1) of sorted by the
// nearest-rank rule: the smallest sample such that at least p of all
// samples are less than or equal to it. It returns 0 for no samples.
func percentile(sorted []int64, p float64) int64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= n {
		rank = n - 1
	}
	return sorted[rank]
}

func sortedCopy(v []int64) []int64 {
	out := append([]int64(nil), v...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// medianNs returns the median of v, in the unit of v.
func medianNs(v []int64) float64 {
	return float64(percentile(sortedCopy(v), 0.5))
}

// medianFloat returns the median of v, averaging the middle pair of an
// even count. It returns 0 for no values.
func medianFloat(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quartiles returns the first quartile, median and third quartile of v
// as Python's statistics.quantiles(v, n=4) gives them (the exclusive
// method), which is what the driver applies to repeated runs. v needs
// at least two values.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 {
		pos := float64(i) * float64(n+1) / 4 // 1-based position
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// relIQR is the inter-quartile range of v as a share of its median.
func relIQR(v []float64) float64 {
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// counterDelta returns after-before for every counter in after. A
// counter missing from before counts from zero; one that went down
// (the server restarted) yields zero.
func counterDelta(before, after map[string]uint64) map[string]uint64 {
	out := make(map[string]uint64, len(after))
	for k, a := range after {
		if b := before[k]; a >= b {
			out[k] = a - b
		} else {
			out[k] = 0
		}
	}
	return out
}

// ratio is num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
