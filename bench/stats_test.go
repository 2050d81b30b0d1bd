package main

import (
	"math"
	"testing"
)

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{40, 10, 30, 20} // unsorted on purpose; sorted 10 20 30 40
	for _, c := range []struct{ q, want float64 }{
		{0, 10}, {1, 40},
		{0.5, 25},    // position 1.5: halfway between 20 and 30
		{0.25, 17.5}, // position 0.75: three quarters of the way from 10 to 20
		{0.75, 32.5}, // position 2.25
	} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v, %v) = %v, want %v", xs, c.q, got, c.want)
		}
	}
	if xs[0] != 40 {
		t.Errorf("quantile sorted its argument in place: %v", xs)
	}
	if got := quantile([]float64{7}, 0.25); got != 7 {
		t.Errorf("single sample: got %v, want 7", got)
	}
	if got := quantile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("empty sample: got %v, want NaN", got)
	}
}

func TestRankIsNearestRank(t *testing.T) {
	s := make([]int64, 100) // 1..100
	for i := range s {
		s[i] = int64(i + 1)
	}
	for _, c := range []struct {
		q    float64
		want int64
	}{{0.50, 50}, {0.99, 99}, {1, 100}, {0, 1}, {0.001, 1}} {
		if got := rank(s, c.q); got != c.want {
			t.Errorf("rank(1..100, %v) = %d, want %d", c.q, got, c.want)
		}
	}
	if got := rank([]int64{5, 9}, 0.5); got != 5 {
		t.Errorf("rank({5,9}, 0.5) = %d, want 5 (smallest with half the sample at or below)", got)
	}
}

// A percentile is trusted with at least ten samples beyond it: p99
// needs a thousand samples, p50 twenty.
func TestBeyondCountsTheTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want int
	}{
		{1000, 0.99, 10},
		{999, 0.99, 9},
		{100_000, 0.99, 1000},
		{20, 0.50, 10},
		{19, 0.50, 9},
		{100, 1, 0},
	} {
		if got := beyond(c.n, c.q); got != c.want {
			t.Errorf("beyond(%d, %v) = %d, want %d", c.n, c.q, got, c.want)
		}
		if trusted := beyond(c.n, c.q) >= 10; trusted != (c.want >= 10) {
			t.Errorf("beyond(%d, %v) trusted = %v", c.n, c.q, trusted)
		}
	}
}

// Windows on a tight quiet level and a ragged disturbed one: the
// estimator reads the quiet level, whichever way better points, even
// when one window in ten fell between the bursts; the median does not
// once the bursts cover half the run.
func TestBestReadsTheQuietLevel(t *testing.T) {
	// 20 windows, only 2 of them quiet (100 ± 1).
	lat := []float64{250, 240, 260, 101, 230, 245, 251, 238, 262, 244, 236, 249, 100, 255, 243, 239, 247, 252, 241, 258}
	if got := best(lat, false); got != 100 {
		t.Errorf("best latency = %v, want 100", got)
	}
	if got := quantile(lat, 0.5); got < 230 {
		t.Errorf("median latency = %v: the test means it to sit in the disturbed level", got)
	}
	rate := make([]float64, len(lat))
	for i, l := range lat {
		rate[i] = 1e6 / l
	}
	if got := best(rate, true); got != 1e6/100 {
		t.Errorf("best rate = %v, want the quiet level (the high end)", got)
	}
	if got := best(nil, false); !math.IsNaN(got) {
		t.Errorf("best of no windows = %v, want NaN", got)
	}

	if got := disturbance([]float64{100, 100, 100, 100, 100}); got != 0 {
		t.Errorf("disturbance of a flat run = %v, want 0", got)
	}
	// Sorted 100 100 100 100 200 200 200 200 200: median 200, best 100.
	if got := disturbance([]float64{200, 100, 200, 100, 200, 100, 200, 100, 200}); got != 1 {
		t.Errorf("disturbance = %v, want 1", got)
	}
}
