package main

import (
	"math"
	"sort"
)

// median returns the middle of xs (mean of the two middles when even),
// 0 for an empty series. xs is not modified.
func median(xs []float64) float64 {
	return percentile(xs, 0.5)
}

// percentile returns the q-quantile of xs by linear interpolation between
// closest ranks, 0 for an empty series. xs is not modified.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// spread is the distance between the first and third quartile as a share
// of the median: the run-to-run (or window-to-window) noise measure the
// bounds are judged against.
func spread(xs []float64) float64 {
	m := median(xs)
	if len(xs) < 2 || m == 0 {
		return 0
	}
	return (percentile(xs, 0.75) - percentile(xs, 0.25)) / math.Abs(m)
}

// latSample is one timed result: when it completed (ns since the
// benchmark's epoch) and how long it took.
type latSample struct {
	doneNs int64
	latNs  int64
}

// splitWindows sorts samples into the windows their completion fell in
// (bounds has one more entry than there are windows) and returns each
// window's latencies in milliseconds. Samples outside every window
// (warm-up, drain) are dropped.
func splitWindows(samples []latSample, bounds []int64) [][]float64 {
	if len(bounds) < 2 {
		return nil
	}
	perWin := make([][]float64, len(bounds)-1)
	for _, s := range samples {
		w := sort.Search(len(bounds), func(i int) bool { return bounds[i] > s.doneNs }) - 1
		if w < 0 || w >= len(perWin) {
			continue
		}
		perWin[w] = append(perWin[w], float64(s.latNs)/1e6)
	}
	return perWin
}
