package main

import (
	"errors"
	"fmt"
	"math"
	"runtime/metrics"
	"slices"
	"syscall"
)

// minTailSamples is the sample count below which only a median is
// reported: a p90 of fewer than forty samples is no tail.
const minTailSamples = 40

// quantile returns the nearest-rank q-quantile of sorted (ascending).
// It refuses any percentile above the median taken from fewer than
// minTailSamples samples.
func quantile(sorted []float64, q float64) (float64, error) {
	n := len(sorted)
	if n == 0 {
		return 0, errors.New("quantile of no samples")
	}
	if q > 0.5 && n < minTailSamples {
		return 0, fmt.Errorf("p%g from %d samples: a tail needs at least %d", 100*q, n, minTailSamples)
	}
	i := int(math.Ceil(q*float64(n))) - 1
	return sorted[max(0, min(n-1, i))], nil
}

// tail returns the highest of p99.9, p99 and p90 that has at least ten
// samples beyond it, and its value; ok is false when not even p90 has.
func tail(sorted []float64) (q, v float64, ok bool) {
	for _, q := range []float64{0.999, 0.99, 0.9} {
		if float64(len(sorted))*(1-q) >= 10-1e-9 {
			v, err := quantile(sorted, q)
			return q, v, err == nil
		}
	}
	return 0, 0, false
}

// sortedCopy returns xs sorted ascending, leaving xs alone.
func sortedCopy(xs []float64) []float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	v, _ := quantile(sortedCopy(xs), 0.5)
	return v
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// peakRSSMB is the process's peak resident set, in MB (2^20 bytes).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// rtSnap is one reading of the Go runtime's own counters.
type rtSnap struct {
	gcCPU, totalCPU float64 // cpu-seconds
	allocBytes      float64
	allocObjects    float64
	schedLat        *metrics.Float64Histogram
}

var rtNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/sched/latencies:seconds",
}

func readRuntime() rtSnap {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	num := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		}
		return 0
	}
	snap := rtSnap{gcCPU: num(0), totalCPU: num(1), allocBytes: num(2), allocObjects: num(3)}
	if s[4].Value.Kind() == metrics.KindFloat64Histogram {
		h := s[4].Value.Float64Histogram()
		snap.schedLat = &metrics.Float64Histogram{Counts: slices.Clone(h.Counts), Buckets: slices.Clone(h.Buckets)}
	}
	return snap
}

// rtDelta is what the runtime did between two snapshots.
type rtDelta struct {
	gcCPUFraction       float64
	allocBytes          float64
	allocObjects        float64
	schedP50s, schedP99 float64 // seconds
}

func runtimeDelta(a, b rtSnap) rtDelta {
	d := rtDelta{allocBytes: b.allocBytes - a.allocBytes, allocObjects: b.allocObjects - a.allocObjects}
	if cpu := b.totalCPU - a.totalCPU; cpu > 0 {
		d.gcCPUFraction = (b.gcCPU - a.gcCPU) / cpu
	}
	if a.schedLat != nil && b.schedLat != nil && len(a.schedLat.Counts) == len(b.schedLat.Counts) {
		counts := make([]uint64, len(b.schedLat.Counts))
		for i := range counts {
			counts[i] = b.schedLat.Counts[i] - a.schedLat.Counts[i]
		}
		d.schedP50s = histQuantile(counts, b.schedLat.Buckets, 0.5)
		d.schedP99 = histQuantile(counts, b.schedLat.Buckets, 0.99)
	}
	return d
}

// histQuantile reads the q-quantile off a runtime/metrics histogram as
// the upper edge of the bucket holding it (the lower edge when the
// bucket is unbounded above).
func histQuantile(counts []uint64, buckets []float64, q float64) float64 {
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	want := uint64(math.Ceil(q * float64(total)))
	var acc uint64
	for i, c := range counts {
		acc += c
		if acc >= want {
			if hi := buckets[i+1]; !math.IsInf(hi, 1) {
				return hi
			}
			return buckets[i]
		}
	}
	return buckets[len(buckets)-1]
}
