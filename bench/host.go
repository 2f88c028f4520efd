package main

import (
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// The host this benchmark runs on is a shared virtual machine, and what it
// shares changes by the minute: an integer loop keeps its speed to 5 %,
// while anything that allocates, copies, wakes a goroutine on the other
// core or makes a system call takes 1.5 to 2.8 times as long in a bad
// quarter of an hour as in a good one — and the overlay does little else.
// Raw, the CPU-bound metrics of ten runs spread 15–55 % (README.md, "First
// recording"), wider than any bound they could be gated by.
//
// So every pass is bracketed by hostKernel, a fixed piece of work of the
// same kinds that uses nothing of this repository, and what the host's
// speed bounds is reported as it would read on a host that runs the
// kernel in hostRef: measured time ÷ slowdown, measured rate × slowdown.
// The values as measured are reported beside them.

// hostRef is how long hostKernel takes on the recording host in a quiet
// minute. It only fixes the unit: both sides of any comparison use it.
const hostRef = 120 * time.Millisecond

const (
	hostAllocs    = 60_000 // per goroutine
	hostAllocSize = 1100   // bytes: a pass-through packet with its header
	hostHandoffs  = 60_000 // channel round trips between two goroutines
	hostEchoes    = 8_000  // loopback TCP round trips of hostAllocSize bytes
)

var hostSink atomic.Int64 // keeps the allocations alive to the end of their loop

// hostKernel does the fixed work and returns how long it took: two
// goroutines that allocate and copy, two that hand a value back and forth
// over unbuffered channels, and a loopback TCP echo.
func hostKernel() (time.Duration, error) {
	runtime.GC() // start from the same heap whatever ran before
	start := time.Now()

	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			src, dst := make([]byte, 1<<20), make([]byte, 1<<20)
			var ring [256][]byte
			for i := 0; i < hostAllocs; i++ {
				b := make([]byte, hostAllocSize)
				o := (i * 4096) & (1<<20 - 4096)
				copy(b, src[o:o+hostAllocSize])
				copy(dst[o:], b)
				ring[i&255] = b
			}
			hostSink.Add(int64(len(ring[0])))
		}()
	}
	wg.Wait()

	ping, pong := make(chan int), make(chan int)
	go func() {
		for v := range ping {
			pong <- v
		}
		close(pong)
	}()
	for i := 0; i < hostHandoffs; i++ {
		ping <- i
		<-pong
	}
	close(ping)
	<-pong

	if err := hostEcho(); err != nil {
		return 0, fmt.Errorf("host kernel: %w", err)
	}
	return time.Since(start), nil
}

func hostEcho() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	echoed := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			echoed <- err
			return
		}
		defer c.Close()
		_, err = io.Copy(c, c)
		echoed <- err
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return err
	}
	buf := make([]byte, hostAllocSize)
	for i := 0; i < hostEchoes && err == nil; i++ {
		if _, err = c.Write(buf); err == nil {
			_, err = io.ReadFull(c, buf)
		}
	}
	c.Close()
	if echoErr := <-echoed; err == nil {
		err = echoErr
	}
	return err
}

// hostRuns is how many runs of hostKernel make one reading. One run
// scatters by an eighth within seconds on a host that is otherwise steady,
// and a pass is scaled by the eight runs round it.
var hostRuns = 4

// hostSlowdown is hostKernel's mean time as a multiple of hostRef.
func hostSlowdown() (float64, error) {
	var sum time.Duration
	for i := 0; i < hostRuns; i++ {
		d, err := hostKernel()
		if err != nil {
			return 0, err
		}
		sum += d
	}
	return float64(sum) / float64(time.Duration(hostRuns)*hostRef), nil
}

// onReferenceHost scales one measured value of an end-to-end metric of w
// to the reference host, given the slowdown measured round the pass (for
// setup_s: the cold set-ups) it came from. On the saturated workloads the
// overlay runs as fast as the host lets it, latency is queueing behind
// that rate and set-up waits for nothing, so all four scale. The paced and
// command-round workloads run at the pace of their schedule, so their rate
// and set-up time stay as measured; their latency is the age flush at
// every hop, which no host changes (timerFloorMs), plus a burst of work
// that takes the host's time, and only that part scales: ten runs at
// slowdowns 1.4 to 1.8 read p50 = 4.0 ms + 2.5 ms x slowdown on
// reduce_paced_tcp to within 1 %.
func (w *workload) onReferenceHost(metric string, v, slowdown float64) float64 {
	switch metric {
	case "pkts_per_s":
		if w.saturated() {
			return v * slowdown
		}
	case "setup_s":
		if w.saturated() {
			return v / slowdown
		}
	case "lat_p50_ms", "lat_p95_ms":
		timer := min(v, w.timerFloorMs())
		return timer + (v-timer)/slowdown
	}
	return v
}
