package main

import (
	"fmt"
	"math"
	"math/bits"
	"time"
)

// histSubBits sets the histogram's precision: each power of two is split
// into 2^histSubBits linear buckets, so a bucket is at most 1/64 of its
// value wide.
const (
	histSubBits = 6
	histSub     = 1 << histSubBits
	histExact   = 2 * histSub // values below this get a bucket each
	histMaxBits = 40          // 2^40 ns is 18 minutes; larger values share the top bucket
	histBuckets = histExact + (histMaxBits-histSubBits-1)*histSub
)

// hist is a fixed-size log-linear histogram of non-negative int64 samples
// (nanoseconds, or plain counts). Its size does not grow with the number
// of samples, so recording latencies does not move the heap the benchmark
// reports as mem_peak_mb.
type hist struct {
	counts [histBuckets]uint64
	n      uint64
	sum    float64
	max    int64
}

func bucketOf(v int64) int {
	if v < histExact {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	s := bits.Len64(uint64(v)) - histSubBits - 1
	return min(histExact+(s-1)*histSub+int(v>>s)-histSub, histBuckets-1)
}

// bucketRange returns bucket i's lowest value and its width.
func bucketRange(i int) (lo, width float64) {
	if i < histExact {
		return float64(i), 1
	}
	s := (i-histExact)/histSub + 1
	m := (i-histExact)%histSub + histSub
	return float64(int64(m) << s), float64(int64(1) << s)
}

func (h *hist) record(v int64) {
	h.counts[bucketOf(v)]++
	h.n++
	h.sum += float64(v)
	if v > h.max {
		h.max = v
	}
}

func (h *hist) recordSince(t time.Time) { h.record(int64(time.Since(t))) }

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
	if o.max > h.max {
		h.max = o.max
	}
}

func (h *hist) mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// beyond is how many of n samples lie above the q-quantile.
func beyond(n uint64, q float64) uint64 {
	return n - uint64(math.Ceil(q*float64(n)))
}

// quantile returns the q-quantile, interpolated linearly inside its
// bucket by rank, so it carries all its digits rather than a bucket edge.
// It refuses a quantile with fewer than ten samples beyond it: such a tail
// is a handful of samples, not a percentile.
func (h *hist) quantile(q float64) (float64, error) {
	if h.n == 0 {
		return 0, fmt.Errorf("no samples")
	}
	if q > 0.5 && beyond(h.n, q) < 10 {
		return 0, fmt.Errorf("p%g needs ten samples beyond it; have %d samples", 100*q, h.n)
	}
	rank := q * float64(h.n-1)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if rank < cum+float64(c) {
			lo, w := bucketRange(i)
			return lo + w*(rank-cum+0.5)/float64(c), nil
		}
		cum += float64(c)
	}
	return float64(h.max), nil
}

// q is quantile for per-layer figures, where a short tail is acceptable:
// when q has fewer than ten samples beyond it, it reports the highest
// quantile below q that has them (the median at the least).
func (h *hist) q(q float64) float64 {
	if h.n > 0 && q > 0.5 && beyond(h.n, q) < 10 {
		q = math.Max(0.5, 1-10.5/float64(h.n))
	}
	v, _ := h.quantile(q)
	return v
}
