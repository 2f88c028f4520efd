// Benchmarks regenerating the paper's evaluation, one per table/figure
// (DESIGN.md §4), plus the ablations. Run with:
//
//	go test -bench=. -benchmem .
//
// The absolute numbers are laptop numbers; the experiment harness
// (cmd/tbon-bench) prints the full tables with the paper-shape checks in
// internal/experiments's tests.
package repro

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
)

// BenchmarkFig4 regenerates Figure 4 points: the mean-shift scaling study
// comparing single-node, flat (1-deep) and deep (2-deep) organizations.
func BenchmarkFig4(b *testing.B) {
	for _, scale := range []int{16, 64, 128} {
		b.Run(fmt.Sprintf("scale%d", scale), func(b *testing.B) {
			cfg := experiments.DefaultFig4Config()
			cfg.Scales = []int{scale}
			cfg.PointsPerCluster = 60
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rows, err := experiments.RunFig4(cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(rows[0].Single.Seconds(), "single-s")
				b.ReportMetric(rows[0].Flat.Seconds(), "flat-s")
				b.ReportMetric(rows[0].Deep.Seconds(), "deep-s")
			}
		})
	}
}

// BenchmarkStartup regenerates T-STARTUP (512-daemon tool startup).
func BenchmarkStartup(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunStartup(experiments.DefaultStartupConfig())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.FlatTotal.Seconds(), "flat-startup-s")
		b.ReportMetric(res.TreeTotal.Seconds(), "tree-startup-s")
		b.ReportMetric(res.Speedup, "speedup-x")
	}
}

// BenchmarkThroughput regenerates T-THROUGHPUT points (front-end record
// rate, flat vs tree) on the real overlay.
func BenchmarkThroughput(b *testing.B) {
	for _, daemons := range []int{32, 128} {
		b.Run(fmt.Sprintf("daemons%d", daemons), func(b *testing.B) {
			cfg := experiments.ThroughputConfig{
				DaemonCounts: []int{daemons},
				Rounds:       10,
				Functions:    32,
				FanOut:       8,
			}
			for i := 0; i < b.N; i++ {
				rows, err := experiments.RunThroughput(cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(rows[0].FlatRate, "flat-rec/s")
				b.ReportMetric(rows[0].TreeRate, "tree-rec/s")
			}
		})
	}
}

// BenchmarkOverhead regenerates T-OVERHEAD (pure topology arithmetic).
func BenchmarkOverhead(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunOverhead()
		if err != nil {
			b.Fatal(err)
		}
		if rows[0].Internal != 16 || rows[1].Internal != 272 {
			b.Fatal("overhead table wrong")
		}
	}
}

// BenchmarkSGFA regenerates T-SGFA (sub-graph folding) on the real overlay.
func BenchmarkSGFA(b *testing.B) {
	cfg := experiments.SGFAConfig{Leaves: 128, FanOut: 8, Shapes: 4, Depth: 3}
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunSGFA(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if !res.FoldCorrect {
			b.Fatal("fold incorrect")
		}
		b.ReportMetric(res.Reduction, "payload-reduction-x")
	}
}

// BenchmarkFanOutSweep runs the deep-tree ablation (the paper's §3.2 open
// question) at 64 back-ends.
func BenchmarkFanOutSweep(b *testing.B) {
	cfg := experiments.FanOutSweepConfig{
		Leaves:  64,
		FanOuts: []int{2, 8, 64},
		Fig4:    experiments.DefaultFig4Config(),
	}
	cfg.Fig4.PointsPerCluster = 40
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFanOutSweep(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSyncPolicies runs the synchronization-policy ablation with a
// short straggler delay.
func BenchmarkSyncPolicies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunSyncPolicyAblation(8, 60*time.Millisecond); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTransports compares the chan and TCP substrates end to end.
func BenchmarkTransports(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunTransportAblation(16, 5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBatching measures upstream small-packet throughput at a flush
// window of 1 (a frame per packet) and of 64 (ABLATE-BATCHING): every
// back-end blasts single-int packets through a waitforall+sum pipeline on
// the chan transport.
func BenchmarkBatching(b *testing.B) {
	const leaves, fanOut, rounds = 256, 16, 600
	for _, cfg := range []struct {
		name   string
		window int
	}{{"w1", 1}, {"w64", 64}} {
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rate, err := experiments.BatchingPoint(leaves, fanOut, cfg.window, rounds)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(rate, "pkts/s")
			}
		})
	}
}

// BenchmarkRecovery regenerates T-RECOVERY points: end-to-end live
// failure recovery (heartbeat detection + grandparent adoption) on a
// running overlay, per tree shape and link fabric.
func BenchmarkRecovery(b *testing.B) {
	for _, shape := range []string{"kary:2^3", "kary:8^2"} {
		for _, tr := range []core.TransportKind{core.ChanTransport, core.TCPTransport} {
			name := shape + "/chan"
			if tr == core.TCPTransport {
				name = shape + "/tcp"
			}
			b.Run(name, func(b *testing.B) {
				cfg := experiments.DefaultRecoveryConfig()
				cfg.Shapes = []string{shape}
				cfg.Transports = []core.TransportKind{tr}
				for i := 0; i < b.N; i++ {
					rows, err := experiments.RunRecovery(cfg)
					if err != nil {
						b.Fatal(err)
					}
					if !rows[0].Correct {
						b.Fatal("post-recovery reduction incorrect")
					}
					b.ReportMetric(rows[0].Detection.Seconds()*1e3, "detect-ms")
					b.ReportMetric(float64(rows[0].Rewire.Microseconds()), "rewire-µs")
				}
			})
		}
	}
}
