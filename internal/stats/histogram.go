// Package stats provides the small statistics toolkit the simulators need:
// log-bucketed histograms of interval lengths, cumulative distributions over
// arbitrary thresholds, and online summaries. Everything is deterministic and
// allocation-light because the cycle-level simulators update these structures
// on hot paths.
package stats

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
)

// Histogram is a log2-bucketed histogram of non-negative integer samples
// (typically cycle counts). Bucket i holds samples in [2^i, 2^(i+1)), with
// bucket 0 holding samples of 0 and 1. It additionally tracks the exact sum
// and count so means are exact even though the distribution is bucketed.
type Histogram struct {
	buckets []uint64
	count   uint64
	sum     uint64
	min     uint64
	max     uint64
}

// NewHistogram returns an empty histogram. The full 64-bucket range is
// preallocated (512 bytes) so AddN never grows the slice on a hot path —
// the cycle loops record into histograms every access and are pinned at
// zero allocations in steady state. Renderers skip empty buckets, so the
// preallocation is invisible to output.
func NewHistogram() *Histogram {
	return &Histogram{min: math.MaxUint64, buckets: make([]uint64, 64)}
}

// bucketOf returns the bucket index for sample v. bits.Len64 compiles to a
// single hardware count-leading-zeros; this sits on the per-access path of
// every cycle simulator.
func bucketOf(v uint64) int {
	if v < 2 {
		return 0
	}
	return bits.Len64(v) - 1
}

// Add records one sample.
func (h *Histogram) Add(v uint64) { h.AddN(v, 1) }

// AddN records n identical samples of value v.
func (h *Histogram) AddN(v uint64, n uint64) {
	if n == 0 {
		return
	}
	b := bucketOf(v)
	for len(h.buckets) <= b {
		h.buckets = append(h.buckets, 0)
	}
	h.buckets[b] += n
	h.count += n
	h.sum += v * n
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of samples recorded.
func (h *Histogram) Count() uint64 { return h.count }

// Sum returns the exact sum of all samples.
func (h *Histogram) Sum() uint64 { return h.sum }

// Mean returns the exact mean of the samples, or 0 if empty.
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Min returns the smallest sample, or 0 if empty.
func (h *Histogram) Min() uint64 {
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest sample, or 0 if empty.
func (h *Histogram) Max() uint64 { return h.max }

// CountAtMost returns the number of samples whose bucket upper bound is <= v;
// it is exact when v+1 is a power of two (bucket boundary) and otherwise a
// bucket-resolution approximation that never overcounts by more than one
// bucket.
func (h *Histogram) CountAtMost(v uint64) uint64 {
	b := bucketOf(v)
	var n uint64
	for i := 0; i < b && i < len(h.buckets); i++ {
		n += h.buckets[i]
	}
	// Within bucket b, assume all samples at the bucket's low edge qualify
	// only when v is the bucket's top value.
	if b < len(h.buckets) {
		lo := uint64(1) << uint(b)
		if b == 0 {
			lo = 0
		}
		hi := uint64(1)<<uint(b+1) - 1
		if v >= hi {
			n += h.buckets[b]
		} else if v >= lo {
			// Linear interpolation within the bucket.
			span := float64(hi - lo + 1)
			frac := float64(v-lo+1) / span
			n += uint64(float64(h.buckets[b]) * frac)
		}
	}
	return n
}

// Fraction returns CountAtMost(v) / Count, or 0 if empty.
func (h *Histogram) Fraction(v uint64) float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.CountAtMost(v)) / float64(h.count)
}

// Buckets invokes fn for every non-empty bucket with the bucket's inclusive
// low and high bounds and its sample count, in increasing order.
func (h *Histogram) Buckets(fn func(lo, hi, count uint64)) {
	for i, c := range h.buckets {
		if c == 0 {
			continue
		}
		lo := uint64(1) << uint(i)
		if i == 0 {
			lo = 0
		}
		hi := uint64(1)<<uint(i+1) - 1
		fn(lo, hi, c)
	}
}

// Merge adds all samples of other into h. Bucket counts and exact sums merge
// losslessly.
func (h *Histogram) Merge(other *Histogram) {
	for len(h.buckets) < len(other.buckets) {
		h.buckets = append(h.buckets, 0)
	}
	for i, c := range other.buckets {
		h.buckets[i] += c
	}
	h.count += other.count
	h.sum += other.sum
	if other.count > 0 {
		if other.min < h.min {
			h.min = other.min
		}
		if other.max > h.max {
			h.max = other.max
		}
	}
}

// Reset clears the histogram.
func (h *Histogram) Reset() {
	for i := range h.buckets {
		h.buckets[i] = 0
	}
	h.count, h.sum, h.max = 0, 0, 0
	h.min = math.MaxUint64
}

// String renders a compact textual summary.
func (h *Histogram) String() string {
	if h.count == 0 {
		return "histogram(empty)"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "histogram(n=%d mean=%.1f min=%d max=%d)", h.count, h.Mean(), h.Min(), h.Max())
	return b.String()
}

// CDF is a cumulative distribution evaluated at a fixed ascending set of
// thresholds. It is the form in which the paper presents Figs. 5 and 6.
type CDF struct {
	// Thresholds are the x-axis points, ascending.
	Thresholds []uint64
	// Cumulative[i] is the fraction of mass at or below Thresholds[i].
	Cumulative []float64
}

// CDFAt extracts a CDF from the histogram at the given thresholds.
// Thresholds must be ascending; the function panics otherwise, because a
// non-monotonic x-axis indicates a caller bug.
func (h *Histogram) CDFAt(thresholds []uint64) CDF {
	for i := 1; i < len(thresholds); i++ {
		if thresholds[i] < thresholds[i-1] {
			panic("stats: CDF thresholds must be ascending")
		}
	}
	c := CDF{Thresholds: append([]uint64(nil), thresholds...)}
	c.Cumulative = make([]float64, len(thresholds))
	for i, t := range thresholds {
		c.Cumulative[i] = h.Fraction(t)
	}
	return c
}

// Quantile returns the (bucket-resolution) value at or below which fraction q
// of the samples fall. q outside [0,1] is clamped.
func (h *Histogram) Quantile(q float64) uint64 {
	if h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := uint64(math.Ceil(q * float64(h.count)))
	var n uint64
	for i, c := range h.buckets {
		n += c
		if n >= target {
			// Return the bucket's upper bound.
			return uint64(1)<<uint(i+1) - 1
		}
	}
	return h.max
}

// SortedThresholds is a convenience that returns a copy of ts sorted
// ascending.
func SortedThresholds(ts []uint64) []uint64 {
	out := append([]uint64(nil), ts...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
