package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	var xs []float64
	for i := 1000; i >= 1; i-- { // descending: percentile must sort
		xs = append(xs, float64(i))
	}
	cases := []struct {
		p    float64
		want float64
	}{
		{0.50, 500}, // 500 samples at or below
		{0.90, 900},
		{0.99, 990}, // exactly ten samples beyond
		{1.00, 1000},
		{0.0001, 1}, // rank rounds up to the first sample
	}
	for _, c := range cases {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..1000, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{4, 1, 3}, 0.5); got != 3 {
		t.Errorf("percentile of 3 samples at 0.5 = %v, want 3 (rank ceil(1.5) = 2)", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile(nil) = %v, want 0", got)
	}
	if xs[0] != 1000 {
		t.Error("percentile reordered its input")
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{7, 1, 5, 3, 9}, 5},
		{[]float64{1, 2, 3, 4}, 2.5},
		{[]float64{42}, 42},
		{nil, 0},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{1, 4, 16}); math.Abs(got-4) > 1e-12 {
		t.Errorf("geomean(1, 4, 16) = %v, want 4", got)
	}
	if got := geomean(nil); got != 0 {
		t.Errorf("geomean(nil) = %v, want 0", got)
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{7, 1, 5, 3, 9}, [3]float64{2, 5, 8}},
		{[]float64{2.5, 2.5, 2.5}, [3]float64{2.5, 2.5, 2.5}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}, [3]float64{27.5, 55, 82.5}},
		{[]float64{3.1, 0.4, 2.2, 8.9, 5.0, 1.7, 6.3}, [3]float64{1.7, 3.1, 6.3}},
		{[]float64{9}, [3]float64{9, 9, 9}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		got := [3]float64{q1, q2, q3}
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
				break
			}
		}
	}
}
