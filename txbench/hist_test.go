package main

import (
	"math"
	"testing"
)

func TestQuantileNeedsTenSamplesBeyond(t *testing.T) {
	var h hist
	for i := 1; i <= 999; i++ {
		h.record(int64(i))
	}
	if _, err := h.quantile(0.99); err == nil {
		t.Fatal("p99 of 999 samples has 9 beyond it and must be refused")
	}
	if _, err := h.quantile(0.5); err != nil {
		t.Fatalf("p50 of 999 samples: %v", err)
	}
	h.record(1000)
	if _, err := h.quantile(0.99); err != nil {
		t.Fatalf("p99 of 1000 samples has 10 beyond it: %v", err)
	}
	// The per-layer fallback reports the highest quantile that has them.
	var small hist
	for i := 1; i <= 200; i++ {
		small.record(int64(i))
	}
	if got := small.q(0.99); got < 180 || got > 192 {
		t.Fatalf("fallback p99 of 1..200 = %v, want about p94.75", got)
	}
}

func TestQuantileInterpolates(t *testing.T) {
	var h hist
	for i := 1; i <= 100000; i++ {
		h.record(int64(i) * 1000)
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		got, err := h.quantile(q)
		if err != nil {
			t.Fatal(err)
		}
		want := q * 1e8
		if math.Abs(got-want)/want > 1.0/64 {
			t.Errorf("q%.2f = %.0f, want %.0f within one bucket", q, got, want)
		}
	}
	// Two histograms of nearly the same data must not read the same value:
	// the rank interpolation keeps every digit.
	var a, b hist
	for i := 0; i < 5000; i++ {
		a.record(int64(30000 + i%700))
		b.record(int64(30000 + i%701))
	}
	qa, _ := a.quantile(0.5)
	qb, _ := b.quantile(0.5)
	if qa == qb {
		t.Errorf("medians of different samples read the same: %v", qa)
	}
}

func TestBucketsRoundTrip(t *testing.T) {
	for _, v := range []int64{0, 1, 127, 128, 129, 255, 256, 1000, 123456789, 1 << 39, 1<<40 - 1} {
		lo, w := bucketRange(bucketOf(v))
		if float64(v) < lo || float64(v) >= lo+w {
			t.Errorf("value %d not in its bucket [%v, %v)", v, lo, lo+w)
		}
	}
	if bucketOf(math.MaxInt64) != histBuckets-1 {
		t.Error("huge values must land in the top bucket")
	}
}

func TestWindowedQuantileIsMedianOfWindows(t *testing.T) {
	lw := newLatWindows(3 * minWindowSamples)
	if len(lw.h) != 3 {
		t.Fatalf("%d windows, want 3", len(lw.h))
	}
	for a := int64(0); a < 3*minWindowSamples; a++ {
		v := int64(100)
		if a < minWindowSamples {
			v = 1_000_000 // one window holds a stall
		}
		lw.record(a, v)
	}
	got, err := lw.quantile(0.99)
	if err != nil {
		t.Fatal(err)
	}
	if got > 200 {
		t.Fatalf("windowed p99 = %v: one stalled window of three must not set it", got)
	}
}
