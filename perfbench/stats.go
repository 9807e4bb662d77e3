package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"tnkd/internal/obs"
)

// minTail is how many samples must lie beyond a reported percentile:
// below that, the percentile is one or two outliers and will not
// repeat from run to run.
const minTail = 10

// tailPercentiles are the percentiles the benchmark may report, in
// ascending order.
var tailPercentiles = []float64{50, 90, 99, 99.9}

// highestPercentile returns the highest of tailPercentiles that has
// at least minTail of n samples beyond it, or 0 when even the median
// has fewer.
func highestPercentile(n int) float64 {
	best := 0.0
	for _, p := range tailPercentiles {
		if float64(n)*(100-p)/100 >= minTail-1e-9 {
			best = p
		}
	}
	return best
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100)
// of xs, or 0 for no samples. xs is left as it was.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	rank := int(math.Ceil(p / 100 * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	return xs[rank-1]
}

// window is the fewest samples a p-th percentile is taken over:
// minTail beyond it.
func window(p float64) int { return int(math.Ceil(minTail * 100 / (100 - p))) }

// p99Window is the fewest samples a p99 is taken over.
var p99Window = window(99)

// windowedPercentile is the p-th percentile latency of a phase, made
// robust to a single stall of the shared machine: the median of the
// p-th percentiles of consecutive windows of at least window(p)
// samples each, or the plain percentile when there are too few samples
// for two windows. all must be in schedule order.
func windowedPercentile(all []float64, p float64) float64 {
	k := len(all) / window(p)
	if k < 2 {
		return percentile(all, p)
	}
	var ps []float64
	for w := 0; w < k; w++ {
		lo, hi := w*len(all)/k, (w+1)*len(all)/k
		ps = append(ps, percentile(all[lo:hi], p))
	}
	return median(ps)
}

func windowedP99(all []float64) float64 { return windowedPercentile(all, 99) }

// median is the 50th percentile, averaging the two middle samples of
// an even count so a handful of repeats gives an unbiased centre.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// memDelta is the Go runtime's allocation work between two points.
type memDelta struct {
	allocs  uint64
	bytes   uint64
	gcCount uint32
}

func readMem() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

func memSince(before runtime.MemStats) memDelta {
	after := readMem()
	return memDelta{
		allocs:  after.Mallocs - before.Mallocs,
		bytes:   after.TotalAlloc - before.TotalAlloc,
		gcCount: after.NumGC - before.NumGC,
	}
}

// resetPeakRSS returns freed heap to the OS and restarts the kernel's
// peak-RSS counter, so the next peakRSSMB reading covers only what
// runs after it. Where the kernel refuses the reset, the peak also
// covers the set-up.
func resetPeakRSS() {
	runtime.GC()
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("parse VmHWM: %w", err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// histDelta merges every series of the named histogram in after,
// minus the same series in before: the distribution of observations
// made between the two snapshots, across all label values.
func histDelta(before, after []obs.Series, name string) obs.HistogramSnapshot {
	prev := map[string]*obs.HistogramSnapshot{}
	for _, s := range before {
		if s.Name == name && s.Hist != nil {
			prev[s.Labels] = s.Hist
		}
	}
	var out obs.HistogramSnapshot
	for _, s := range after {
		if s.Name != name || s.Hist == nil {
			continue
		}
		h := s.Hist
		if out.Buckets == nil {
			out.Bounds = h.Bounds
			out.Buckets = make([]int64, len(h.Buckets))
		}
		out.Count += h.Count
		out.Sum += h.Sum
		for i, n := range h.Buckets {
			out.Buckets[i] += n
		}
		if p := prev[s.Labels]; p != nil {
			out.Count -= p.Count
			out.Sum -= p.Sum
			for i, n := range p.Buckets {
				out.Buckets[i] -= n
			}
		}
	}
	return out
}

// counterDelta sums every series of the named counter in after minus
// before, across all label values.
func counterDelta(before, after []obs.Series, name string) int64 {
	var d int64
	for _, s := range after {
		if s.Name == name {
			d += s.Value
		}
	}
	for _, s := range before {
		if s.Name == name {
			d -= s.Value
		}
	}
	return d
}
