package main

import (
	"fmt"
	"os"
	"time"
)

const maxColdBuilds = 31

// passResult is one pass (untraced or traced) over one workload: as many
// attempts as the watchdog made necessary, folded together.
type passResult struct {
	w        *workload
	nLeaf    int
	ok       int64
	failed   int64
	wrong    int64 // results the oracle rejected; the rest of failed never arrived
	wedges   int
	restarts int
	windows  []window
	last     attemptResult // the attempt that measured last: source of the counter deltas
}

// runPass measures o.windows windows of w, restarting a wedged overlay at
// most o.maxRestarts times. A wedged attempt keeps the windows it
// finished and all its failures.
func runPass(w *workload, o *options) (*passResult, error) {
	pr := &passResult{w: w}
	for idx := 0; ; idx++ {
		a, err := newAttempt(w, o, idx)
		if err != nil {
			return nil, err
		}
		pr.nLeaf = a.nLeaf
		res := a.run(o.windows - len(pr.windows))
		pr.ok += res.ok
		pr.failed += res.failed
		pr.wrong += res.wrong
		pr.windows = append(pr.windows, res.windows...)
		if len(res.windows) > 0 || idx == 0 {
			pr.last = res
		}
		if !res.wedged {
			return pr, nil
		}
		pr.wedges++
		fmt.Fprintf(os.Stderr, "bench: %s: watchdog: attempt %d wedged after %d windows (%d operations failed so far)\n",
			w.name, idx, len(res.windows), pr.failed)
		if len(pr.windows) >= o.windows || pr.restarts == o.maxRestarts {
			return pr, nil
		}
		pr.restarts++
	}
}

// coldBuilds sets the overlay up from nothing, to its first correct
// result, and tears it down again: at least n times, and on while the
// whole takes under budget, up to maxColdBuilds — a set-up of a few
// milliseconds needs more repeats for a steady median than one of a
// hundred. A set-up that fails counts as a failed operation.
func coldBuilds(w *workload, o *options, n int, budget time.Duration) (timings []setupTiming, failed int64) {
	cold := *o
	cold.traced = false
	cold.wedgeAfter = 0
	start := time.Now()
	for i := 0; i < n || (i < maxColdBuilds && time.Since(start) < budget); i++ {
		a, err := newAttempt(w, &cold, 0)
		if err != nil {
			return timings, failed + 1
		}
		buildErr := a.build()
		if buildErr != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: cold set-up %d failed: %v\n", w.name, i, buildErr)
			failed++
			a.dumpWedge("setup")
		}
		// Nobody reads a cold overlay's streams, and Shutdown waits for ever
		// on a front-end blocked delivering into a full receive buffer.
		for _, st := range a.streams {
			go func() {
				for {
					if _, err := st.Recv(); err != nil {
						return
					}
				}
			}()
		}
		if a.teardown() {
			fmt.Fprintf(os.Stderr, "bench: %s: cold set-up %d: Shutdown did not return within %v\n", w.name, i, shutdownCap)
			failed++
			break // a hung overlay is still running; more set-ups would only measure it
		}
		if buildErr == nil {
			timings = append(timings, a.timing)
		}
	}
	return timings, failed
}

// perWindow maps every window with results to f(window, its back-end packets).
func (pr *passResult) perWindow(f func(w window, pkts float64) float64) []float64 {
	var out []float64
	for _, w := range pr.windows {
		if w.ops > 0 {
			out = append(out, f(w, float64(w.ops*pr.w.leafPktsPerOp(pr.nLeaf))))
		}
	}
	return out
}

// latWindows returns f of every window that timed at least one operation.
func (pr *passResult) latWindows(f func(window) float64) []float64 {
	var out []float64
	for _, w := range pr.windows {
		if w.latN > 0 {
			out = append(out, f(w))
		}
	}
	return out
}

func (pr *passResult) pktsPerS() []float64 {
	return pr.perWindow(func(w window, pkts float64) float64 { return pkts / w.secs })
}

func (pr *passResult) cpuNsPerPkt() []float64 {
	return pr.perWindow(func(w window, pkts float64) float64 { return float64(w.cpuNs) / pkts })
}

// endToEndSeries returns the per-window series of every windowed
// end-to-end metric; their medians are the reported values.
func (pr *passResult) endToEndSeries() map[string][]float64 {
	return map[string][]float64{
		"pkts_per_s":     pr.pktsPerS(),
		"allocs_per_pkt": pr.perWindow(func(w window, pkts float64) float64 { return float64(w.mallocs) / pkts }),
		"lat_p50_ms":     pr.latWindows(func(w window) float64 { return w.latP50 }),
		"lat_p95_ms":     pr.latWindows(func(w window) float64 { return w.latP95 }),
	}
}

// latSamples is how many operations the latency metrics timed per window
// (median), which says how far out a percentile can be trusted.
func (pr *passResult) latSamples() float64 {
	return median(pr.latWindows(func(w window) float64 { return float64(w.latN) }))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics turns a traced pass into the C and T per-layer metrics.
func (pr *passResult) layerMetrics(m map[string]float64) {
	res := pr.last
	c := func(k string) float64 { return float64(res.counters[k]) }
	kpkt := float64(res.leafPkts) / 1000

	m["packet.arena_miss_share"] = ratio(c("arena_misses"), c("arena_gets"))
	m["core.pkts_per_frame"] = ratio(c("packets_queued"), c("frames_sent"))
	flushes := c("flush_size") + c("flush_age") + c("flush_control") + c("flush_drain")
	m["core.flush_size_share"] = ratio(c("flush_size"), flushes)
	m["core.flush_age_share"] = ratio(c("flush_age"), flushes)
	m["core.credit_stalls_per_kpkt"] = ratio(c("credit_stalls"), kpkt)
	m["core.credit_grants_per_kpkt"] = ratio(c("credit_grants"), kpkt)
	m["core.shard_inline_share"] = ratio(c("shard_inline"), c("shard_inline")+c("shard_dispatches"))
	m["core.shard_queue_highwater"] = c("shard_queue_high_water")
	m["core.egress_highwater"] = c("egress_high_water")
	m["core.replay_ring_highwater"] = c("replay_ring_high_water")
	m["core.dups_dropped"] = c("dups_dropped")
	m["core.filter_errors"] = c("filter_errors")

	m["runtime.gc_cpu_share"] = ratio(res.gcCPUSec, res.cpuSec)
	m["runtime.gc_cycles"] = float64(res.gcCycles)
	m["runtime.heap_growth_mb_per_Mpkt"] = ratio(res.liveHeapMB-res.heapStartMB, kpkt/1000)
	m["runtime.peak_rss_mb"] = peakRSSMB()
	m["runtime.goroutines"] = float64(res.goroutines)

	m["core.send_ns"] = median(pr.perWindow(func(w window, _ float64) float64 { return ratio(float64(w.sendNs), float64(w.sends)) }))
	m["core.send_blocked_share"] = median(pr.perWindow(func(w window, _ float64) float64 { return ratio(float64(w.sendBlocked), float64(w.sends)) }))
	clients := 1.0
	if pr.w.kind == commandRounds {
		clients = float64(len(tenants))
	}
	m["core.recv_wait_share"] = median(pr.perWindow(func(w window, _ float64) float64 { return float64(w.recvWaitNs) / (w.secs * 1e9 * clients) }))
	m["core.multicast_ns"] = ratio(float64(res.mcastNs), float64(res.mcasts))

	// Tier 1 holds the root's edges, the last tier the leaves'.
	if n := len(res.tiersUp); n > 1 {
		for _, t := range []struct {
			name string
			d    int
		}{{"leaf", n - 1}, {"root", 1}} {
			up, down := res.tiersUp[t.d], res.tiersDown[t.d]
			pkts := float64(up.data + up.ctrl)
			m["transport.sendbatch_ns_per_pkt."+t.name] = ratio(float64(up.ns), pkts)
			m["transport.frames_per_kpkt."+t.name] = ratio(float64(up.frames)*1000, pkts)
			m["transport.wire_bytes_per_pkt."+t.name] = ratio(float64(up.bytes), pkts)
			m["transport.ctrl_pkt_share."+t.name] = ratio(float64(up.ctrl+down.ctrl), pkts+float64(down.data+down.ctrl))
		}
	}

	late := make([]float64, len(res.late))
	for i, ns := range res.late {
		late[i] = float64(ns) / 1e6
	}
	m["gen.late_p99_ms"] = percentile(late, 0.99)
	m["lat_p99_ms"] = median(pr.latWindows(func(w window) float64 { return w.latP99 }))
	m["lat_p999_ms"] = median(pr.latWindows(func(w window) float64 { return w.latP999 }))
}

// crossings is how many upstream link crossings one back-end packet
// caused, from the traced per-tier packet counts: 1 + 1/8 for a reduction
// on kary:8^2, 2 for a pass-through.
func (pr *passResult) crossings() float64 {
	var data int64
	for _, t := range pr.last.tiersUp {
		data += t.data
	}
	return ratio(float64(data), float64(pr.last.leafPkts))
}
