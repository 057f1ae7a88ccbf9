package main

import "testing"

func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestQuantileNearestRank(t *testing.T) {
	xs := ramp(100)
	for _, c := range []struct{ q, want float64 }{{0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100}, {0, 1}} {
		if got, err := quantile(xs, c.q); err != nil || got != c.want {
			t.Errorf("p%g of 1..100 = %v, %v; want %v", 100*c.q, got, err, c.want)
		}
	}
}

func TestQuantileRefusesTailBelowFortySamples(t *testing.T) {
	if _, err := quantile(ramp(39), 0.9); err == nil {
		t.Fatal("p90 of 39 samples accepted")
	}
	if _, err := quantile(ramp(39), 0.5); err != nil {
		t.Fatalf("median of 39 samples refused: %v", err)
	}
	if _, err := quantile(ramp(40), 0.9); err != nil {
		t.Fatalf("p90 of 40 samples refused: %v", err)
	}
	if _, err := quantile(nil, 0.5); err == nil {
		t.Fatal("median of no samples accepted")
	}
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{99, 0, false},
		{100, 0.9, true},
		{999, 0.9, true},
		{1000, 0.99, true},
		{9999, 0.99, true},
		{10000, 0.999, true},
	} {
		q, v, ok := tail(ramp(c.n))
		if ok != c.ok || q != c.want {
			t.Errorf("tail of %d samples = p%g (ok %v); want p%g (ok %v)", c.n, 100*q, ok, 100*c.want, c.ok)
			continue
		}
		if ok && float64(c.n)-v < 10 {
			t.Errorf("tail of %d samples = %v leaves %v samples beyond it", c.n, v, float64(c.n)-v)
		}
	}
}

func TestWindowBoundsKeepGroupsWhole(t *testing.T) {
	for _, c := range []struct{ n, unit, size, count int }{
		{1233, 1, 123, 10},
		{6000, 12, 600, 10},
		{1421, 7, 140, 10},
		{250, 1, 125, 2},
		{150, 1, 150, 1},
		{40, 7, 40, 1},
	} {
		size, count := windowBounds(c.n, c.unit)
		if size != c.size || count != c.count {
			t.Errorf("windowBounds(%d, %d) = %d x %d; want %d x %d", c.n, c.unit, count, size, c.count, c.size)
		}
		if count > 1 && (size%c.unit != 0 || size < minWindowOps) {
			t.Errorf("windowBounds(%d, %d): window of %d", c.n, c.unit, size)
		}
	}
}
