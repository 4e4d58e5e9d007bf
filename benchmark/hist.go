package main

import "math/bits"

// hist is a fixed-size log-bucket histogram of nanosecond durations. Every
// power of two is split into histSub linear sub-buckets, so a bucket is at
// most 1/histSub (1.6 %) wide and a reported percentile is within that of the
// sorted-sample percentile. It is an array, not a slice: recording never
// allocates, so the harness adds nothing to allocs_per_txn.
type hist struct {
	count   int64
	sum     int64
	buckets [histBuckets]int64
}

const (
	histSubBits = 6
	histSub     = 1 << histSubBits
	// Durations of 2^histMaxExp ns (73 min) and above share the last bucket.
	histMaxExp  = 42
	histBuckets = (histMaxExp - histSubBits + 1) * histSub
)

// bucketOf maps a duration to its bucket: values below histSub are exact,
// above that the exponent picks the row and the next histSubBits bits the
// column.
func bucketOf(ns int64) int {
	if ns < histSub {
		if ns < 0 {
			return 0
		}
		return int(ns)
	}
	e := bits.Len64(uint64(ns)) - 1
	if e >= histMaxExp {
		return histBuckets - 1
	}
	sub := int(ns>>uint(e-histSubBits)) & (histSub - 1)
	return (e-histSubBits+1)*histSub + sub
}

// bucketBounds returns the smallest value of bucket b and the bucket width.
func bucketBounds(b int) (lower, width int64) {
	if b < histSub {
		return int64(b), 1
	}
	shift := uint(b/histSub - 1)
	return int64(histSub+b%histSub) << shift, 1 << shift
}

func (h *hist) record(ns int64) {
	h.count++
	h.sum += ns
	h.buckets[bucketOf(ns)]++
}

func (h *hist) merge(o *hist) {
	h.count += o.count
	h.sum += o.sum
	for i, n := range o.buckets {
		h.buckets[i] += n
	}
}

// percentile returns the p-th percentile (0 < p <= 100) in nanoseconds,
// interpolated linearly inside the bucket that holds the rank; 0 when empty.
func (h *hist) percentile(p float64) float64 {
	if h.count == 0 {
		return 0
	}
	rank := p / 100 * float64(h.count)
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for b, n := range h.buckets {
		if n == 0 {
			continue
		}
		if float64(cum+n) >= rank {
			lower, width := bucketBounds(b)
			return float64(lower) + float64(width)*(rank-float64(cum))/float64(n)
		}
		cum += n
	}
	lower, width := bucketBounds(histBuckets - 1)
	return float64(lower + width)
}
