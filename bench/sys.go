package main

import (
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
)

// epoch anchors every timestamp of a run on the monotonic clock.
var epoch = time.Now()

func nowNs() int64 { return int64(time.Since(epoch)) }

func msSince(startNs int64) float64 { return float64(nowNs()-startNs) / 1e6 }

// cpuNs is the process's user+system CPU time so far.
func cpuNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// peakRSSMB is the process's high-water resident set (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// gcCPUSeconds is the CPU time the collector has used so far.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// liveHeapMB forces a collection and returns what survived it. Under load
// the answer depends on how much happened to be in flight at that instant,
// so it is the median of liveHeapSamples collections a few milliseconds
// apart.
func liveHeapMB() float64 {
	var xs []float64
	var ms runtime.MemStats
	for i := 0; i < liveHeapSamples; i++ {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		xs = append(xs, float64(ms.HeapAlloc)/(1<<20))
		time.Sleep(5 * time.Millisecond)
	}
	return median(xs)
}

const liveHeapSamples = 7
