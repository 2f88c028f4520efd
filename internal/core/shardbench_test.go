package core

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/filter"
	"repro/internal/packet"
	"repro/internal/topology"
)

// quantileReduce is a deliberately compute-heavy transformation for the
// sharding benchmark: it concatenates the batch's float arrays, sorts
// them, and forwards the five-number summary. Per-packet cost is dominated
// by the sort — the "arbitrary application logic" class of filter whose
// throughput the stream-sharded data plane is meant to scale with cores.
type quantileReduce struct{}

func (quantileReduce) Transform(in []*packet.Packet) ([]*packet.Packet, error) {
	var xs []float64
	for _, p := range in {
		for i := 0; i < p.NumValues(); i++ {
			if v, err := p.FloatArray(i); err == nil {
				xs = append(xs, v...)
			}
		}
	}
	if len(xs) == 0 {
		return nil, nil
	}
	sort.Float64s(xs)
	summary := []float64{xs[0], xs[len(xs)/4], xs[len(xs)/2], xs[3*len(xs)/4], xs[len(xs)-1]}
	out, err := packet.New(in[0].Tag, in[0].StreamID, in[0].SrcRank, "%af", summary)
	if err != nil {
		return nil, err
	}
	return []*packet.Packet{out}, nil
}

// runShardedFilterWorkload drives the multi-stream filter workload of
// BenchmarkShardedFilters: a flat overlay whose single routing process (the
// front-end) runs the heavy quantile filter over streams concurrent
// streams, with every back-end producing rounds samples of 512 floats per
// stream. It returns the aggregate filtered packet count and the wall time
// from first multicast to last delivery.
func runShardedFilterWorkload(tb testing.TB, shards, rounds int) (int, time.Duration) {
	tb.Helper()
	const (
		leaves  = 16
		streams = 8
		width   = 512
	)
	payload := make([]float64, width)
	for i := range payload {
		payload[i] = float64(i % 97)
	}
	reg := filter.NewRegistry()
	reg.RegisterTransformation("quantiles", func() filter.Transformation { return quantileReduce{} })
	nw, err := NewNetwork(Config{
		Topology: mustTreeTB(tb, fmt.Sprintf("flat:%d", leaves)),
		Registry: reg,
		Shards:   shards,
		Batch:    DefaultBatchPolicy(),
		OnBackEnd: func(be *BackEnd) error {
			for {
				p, err := be.Recv()
				if err != nil {
					return nil
				}
				for r := 0; r < rounds; r++ {
					if err := be.Send(p.StreamID, p.Tag, "%af", payload); err != nil {
						return nil
					}
				}
			}
		},
	})
	if err != nil {
		tb.Fatal(err)
	}
	defer nw.Shutdown()

	sts := make([]*Stream, streams)
	for s := range sts {
		st, err := nw.NewStream(StreamSpec{
			Transformation:  "quantiles",
			Synchronization: "nullsync",
			RecvBuffer:      rounds*leaves + 8,
		})
		if err != nil {
			tb.Fatal(err)
		}
		sts[s] = st
	}
	start := time.Now()
	var wg sync.WaitGroup
	for s, st := range sts {
		wg.Add(1)
		go func(s int, st *Stream) {
			defer wg.Done()
			if err := st.Multicast(tagQuery, ""); err != nil {
				tb.Errorf("stream %d multicast: %v", s, err)
				return
			}
			for i := 0; i < rounds*leaves; i++ {
				if _, err := st.RecvTimeout(120 * time.Second); err != nil {
					tb.Errorf("stream %d delivery %d: %v", s, i, err)
					return
				}
			}
		}(s, st)
	}
	wg.Wait()
	return streams * leaves * rounds, time.Since(start)
}

// mustTreeTB is mustTree for benchmarks too.
func mustTreeTB(tb testing.TB, spec string) *topology.Tree {
	tb.Helper()
	tr, err := topology.ParseSpec(spec)
	if err != nil {
		tb.Fatalf("topology %q: %v", spec, err)
	}
	return tr
}

// BenchmarkShardedFilters compares the stream-sharded data plane against
// the serial (shards=1) pipeline on the multi-stream heavy-filter
// workload. The interesting output is the pkts/s metric: with shards set
// to the core count, aggregate filtered throughput should scale with the
// machine (≥1.5× on 2 cores, ≥2× targeted on 4+); on a single-core host
// the two configurations coincide.
func BenchmarkShardedFilters(b *testing.B) {
	for _, shards := range benchShardCounts() {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			rounds := b.N
			pkts, elapsed := runShardedFilterWorkload(b, shards, rounds)
			b.ReportMetric(float64(pkts)/elapsed.Seconds(), "pkts/s")
			b.ReportMetric(0, "ns/op") // wall time is the workload metric
		})
	}
}

func benchShardCounts() []int {
	n := runtime.GOMAXPROCS(0)
	if n <= 1 {
		return []int{1}
	}
	return []int{1, n}
}
