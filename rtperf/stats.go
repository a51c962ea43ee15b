package main

import (
	"slices"
	"sync/atomic"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs is sorted in place. It returns 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	frac := pos - float64(i)
	return xs[i] + frac*(xs[i+1]-xs[i])
}

// trimmedMean sorts xs and averages them without the lowest and highest
// quarter (at least one value each side when there are three or more).
// Over a run's rounds it is as robust as the median to one odd round,
// and steadier than the median when rounds fall into two modes, as
// call rates do with heap placement.
func trimmedMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	k := len(xs) / 4
	if k == 0 && len(xs) >= 3 {
		k = 1
	}
	sum := 0.0
	for _, x := range xs[k : len(xs)-k] {
		sum += x
	}
	return sum / float64(len(xs)-2*k)
}

// nsQuantile is quantile over nanosecond samples, in the given unit.
func nsQuantile(ns []int64, q float64, unit time.Duration) float64 {
	xs := make([]float64, len(ns))
	for i, v := range ns {
		xs[i] = float64(v) / float64(unit)
	}
	return quantile(xs, q)
}

// samples keeps an evenly spaced subset of a stream of values in a
// fixed amount of memory: when the buffer fills it drops every other
// sample and from then on keeps every second value, and so on.
type samples struct {
	v      []int64
	stride int
	skip   int
}

func newSamples(capacity int) *samples {
	return &samples{v: make([]int64, 0, capacity), stride: 1}
}

func (s *samples) add(x int64) {
	if s.skip > 0 {
		s.skip--
		return
	}
	if len(s.v) == cap(s.v) {
		half := s.v[:0]
		for i := 0; i < len(s.v); i += 2 {
			half = append(half, s.v[i])
		}
		s.v = half
		s.stride *= 2
	}
	s.v = append(s.v, x)
	s.skip = s.stride - 1
}

// progress is one load goroutine's completed-operation count, alone on
// its cache lines so that publishing it does not slow a neighbour.
type progress struct {
	_ [64]byte
	n atomic.Uint64
	_ [56]byte
}

// windowRates measures the rates of the given series over consecutive
// windows of about win, for dur, and returns each series' median window
// rate in units per second. Reporting the median keeps a window hit by
// a GC or a host hiccup from moving the result.
func windowRates(series []func() uint64, dur, win time.Duration) []float64 {
	rates := make([][]float64, len(series))
	prev := make([]uint64, len(series))
	read := func() int64 {
		for i, f := range series {
			prev[i] = f()
		}
		return now()
	}
	end := now() + int64(dur)
	prevT := read()
	for prevT < end {
		time.Sleep(win)
		t := now()
		for i, f := range series {
			v := f()
			rates[i] = append(rates[i], float64(v-prev[i])/(float64(t-prevT)/1e9))
			prev[i] = v
		}
		prevT = t
	}
	out := make([]float64, len(series))
	for i := range rates {
		out[i] = quantile(rates[i], 0.5)
	}
	return out
}

// sumOf returns a series summing the given counters.
func sumOf(counters []*progress) func() uint64 {
	return func() uint64 {
		var t uint64
		for _, c := range counters {
			t += c.n.Load()
		}
		return t
	}
}
