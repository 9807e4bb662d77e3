package main

import (
	"testing"
	"time"
)

func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90},
		{999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted on purpose
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {100, 100}, {0.1, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("p50 of nothing = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestWindowedP99(t *testing.T) {
	// 3000 requests at 1 ms with one stall of 25 requests at 500 ms in
	// the first window: the plain p99 reads the stall, the windowed
	// one the median window.
	all := make([]float64, 3000)
	for i := range all {
		all[i] = 1
	}
	for i := 100; i < 125; i++ {
		all[i] = 500
	}
	if got := percentile(all, 99); got != 1 {
		t.Fatalf("plain p99 = %v, want 1 (25 of 3000 slow)", got)
	}
	for i := 125; i < 140; i++ {
		all[i] = 500
	}
	if got := percentile(all, 99); got != 500 {
		t.Fatalf("plain p99 = %v, want 500 (40 of 3000 slow)", got)
	}
	if got := windowedP99(all); got != 1 {
		t.Errorf("windowed p99 = %v, want 1", got)
	}
	if all[100] != 500 || all[0] != 1 {
		t.Error("percentile reordered its input")
	}
	if got := windowedP99(all[:1500]); got != 500 {
		t.Errorf("windowed p99 of one window = %v, want the plain p99 500", got)
	}
}

func TestWindowedP90(t *testing.T) {
	if window(90) != 100 || window(99) != 1000 {
		t.Fatalf("windows %d and %d, want 100 and 1000", window(90), window(99))
	}
	// 2000 requests in windows of 100, each with its top eleven at
	// 2 ms and the rest at 1 ms, so each window's p90 is 2 ms. One
	// stalled window at 50 ms moves neither p90; four move the plain
	// p90 but not the windowed one.
	all := make([]float64, 2000)
	for i := range all {
		all[i] = 1
		if i%100 >= 89 {
			all[i] = 2
		}
	}
	for i := 300; i < 400; i++ {
		all[i] = 50
	}
	if got := windowedPercentile(all, 90); got != 2 {
		t.Errorf("windowed p90 = %v, want 2", got)
	}
	for i := 400; i < 700; i++ {
		all[i] = 50
	}
	if got := percentile(all, 90); got != 50 {
		t.Fatalf("plain p90 = %v, want 50 (400 of 2000 stalled)", got)
	}
	if got := windowedPercentile(all, 90); got != 2 {
		t.Errorf("windowed p90 = %v, want 2", got)
	}
	if got := windowedPercentile(all[:150], 90); got != percentile(all[:150], 90) {
		t.Errorf("windowed p90 of one window = %v, want the plain p90", got)
	}
}

func TestWindowRate(t *testing.T) {
	// Ten sends every 100 ms for a second, but none in one stalled
	// window: the median window rate does not read the stall.
	var at []time.Duration
	for i := 0; i < 100; i++ {
		if i/10 != 3 {
			at = append(at, time.Duration(i)*10*time.Millisecond)
		}
	}
	if got := windowRate(at, time.Second, 100*time.Millisecond); got != 100 {
		t.Errorf("window rate = %v, want 100", got)
	}
	// A phase shorter than one window: the plain rate.
	if got := windowRate(at[:5], 50*time.Millisecond, 100*time.Millisecond); got != 100 {
		t.Errorf("rate of a sub-window phase = %v, want 100", got)
	}
}
