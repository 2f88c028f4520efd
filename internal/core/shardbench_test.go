package core

import (
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/filter"
	"repro/internal/packet"
	"repro/internal/topology"
)

// quantileReduce is a deliberately compute-heavy transformation for the
// filter-heavy benchmark: it concatenates the batch's float arrays, sorts
// them, and forwards the five-number summary. Per-packet cost is dominated
// by the sort — the "arbitrary application logic" class of filter whose
// throughput the tree relieves by spreading it over more processes.
type quantileReduce struct{}

func (quantileReduce) Apply(in []*packet.Packet, emit filter.Emitter) error {
	var xs []float64
	for _, p := range in {
		for i := 0; i < p.NumValues(); i++ {
			if v, err := p.FloatArray(i); err == nil {
				xs = append(xs, v...)
			}
		}
	}
	if len(xs) == 0 {
		return nil
	}
	sort.Float64s(xs)
	summary := []float64{xs[0], xs[len(xs)/4], xs[len(xs)/2], xs[3*len(xs)/4], xs[len(xs)-1]}
	out, err := packet.New(in[0].Tag, in[0].StreamID, in[0].SrcRank, "%af", summary)
	if err != nil {
		return err
	}
	emit.Emit(out)
	return nil
}

// runShardedFilterWorkload drives the multi-stream filter workload of
// BenchmarkShardedFilters on the topology spec: every routing process runs
// the heavy quantile filter over streams concurrent streams, with every
// back-end producing rounds samples of 512 floats per stream. It returns
// the aggregate filtered packet count and the wall time from first
// multicast to last delivery.
func runShardedFilterWorkload(tb testing.TB, spec string, rounds int) (int, time.Duration) {
	tb.Helper()
	const (
		streams = 8
		width   = 512
	)
	tree := mustTreeTB(tb, spec)
	leaves := len(tree.Leaves())
	payload := make([]float64, width)
	for i := range payload {
		payload[i] = float64(i % 97)
	}
	reg := filter.NewRegistry()
	reg.RegisterTransformation("quantiles", func() filter.Transformation { return quantileReduce{} })
	nw, err := NewNetwork(Config{
		Topology: tree,
		Registry: reg,
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

// BenchmarkShardedFilters runs the multi-stream heavy-filter workload —
// 16 back-ends, 8 streams — on a flat front-end and on a two-level tree
// and prints both aggregate filtered rates (pkts/s). It is the paper's
// flat-versus-tree claim for a filter-heavy front-end: each router runs
// one pipeline, so a flat front-end filters every packet on one up lane,
// and the tree spreads the same work over its internal routers. It asserts
// no ratio; the numbers are for the log.
func BenchmarkShardedFilters(b *testing.B) {
	for _, spec := range []string{"flat:16", "kary:4^2"} {
		b.Run(spec, func(b *testing.B) {
			pkts, elapsed := runShardedFilterWorkload(b, spec, b.N)
			b.ReportMetric(float64(pkts)/elapsed.Seconds(), "pkts/s")
			b.ReportMetric(0, "ns/op") // wall time is the workload metric
		})
	}
}
