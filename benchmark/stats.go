package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// sample is one timed operation: when it completed, counted from the start
// of its phase, and how long the caller waited for it.
type sample struct {
	at, lat time.Duration
}

// metric is one reported number. For a percentile, Samples is how many
// operations it was taken over and Beyond how many of them, in the thinnest
// window, lay beyond it.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
	Beyond  int     `json:"beyond,omitempty"`
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return math.NaN()
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// midmean is the mean of the middle half of the values. Recoveries take one
// of two times here, depending on what the synced files cost that moment, so
// their median flips between the two; the midmean moves with the mix and
// still drops the outliers.
func midmean(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	lo, hi := len(s)/4, len(s)-len(s)/4
	var sum float64
	for _, x := range s[lo:hi] {
		sum += x
	}
	return sum / float64(hi-lo)
}

func usOf(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// percentileOf returns the p-th percentile (nearest rank) of sorted values
// and how many of them lie beyond it.
func percentileOf(sorted []float64, p float64) (v float64, beyond int) {
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	rank = min(max(rank, 1), len(sorted))
	return sorted[rank-1], len(sorted) - rank
}

// windowOf is the index of the equal window of a phase that a completion
// time falls into.
func windowOf(at, phase time.Duration, windows int) int {
	return min(int(int64(at)*int64(windows)/int64(phase)), windows-1)
}

// split cuts a phase of the given length into equal windows by completion
// time and returns each window's latencies in microseconds, sorted.
func split(samples []sample, phase time.Duration, windows int) [][]float64 {
	out := make([][]float64, windows)
	for _, s := range samples {
		w := windowOf(s.at, phase, windows)
		out[w] = append(out[w], usOf(s.lat))
	}
	for _, w := range out {
		sort.Float64s(w)
	}
	return out
}

// windowed is the median over equal windows of each window's p-th
// percentile latency, so that one noisy burst moves one window and not the
// result. It refuses a percentile that any window supports with fewer than
// minBeyond samples beyond it.
func windowed(samples []sample, phase time.Duration, windows int, p float64, minBeyond int) (metric, error) {
	var per []float64
	thinnest := math.MaxInt
	for _, w := range split(samples, phase, windows) {
		if len(w) == 0 {
			return metric{}, fmt.Errorf("p%g: a window of %d holds no sample", p, windows)
		}
		v, beyond := percentileOf(w, p)
		per = append(per, v)
		thinnest = min(thinnest, beyond)
	}
	if thinnest < minBeyond {
		return metric{}, fmt.Errorf("p%g over %d samples in %d windows: only %d beyond it in the thinnest, need %d",
			p, len(samples), windows, thinnest, minBeyond)
	}
	return metric{Value: median(per), Unit: "us", Samples: len(samples), Beyond: thinnest}, nil
}

// ratePerSecond is the median over equal windows of units completed per
// second, each sample standing for unitsPerSample units.
func ratePerSecond(samples []sample, phase time.Duration, windows, unitsPerSample int) metric {
	counts := make([]float64, windows)
	for _, s := range samples {
		counts[windowOf(s.at, phase, windows)]++
	}
	window := phase.Seconds() / float64(windows)
	for i := range counts {
		counts[i] = counts[i] * float64(unitsPerSample) / window
	}
	return metric{Value: median(counts), Unit: "1/s", Samples: len(samples)}
}

// p50us is the plain median latency of a batch of direct calls.
func p50us(lats []time.Duration) float64 {
	v := make([]float64, len(lats))
	for i, d := range lats {
		v[i] = usOf(d)
	}
	return median(v)
}
