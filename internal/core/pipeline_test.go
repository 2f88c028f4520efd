package core

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/filter"
	"repro/internal/packet"
)

// TestPerStreamFIFOUnder64ConcurrentStreams pins the data plane's core
// invariant: with many streams filtering concurrently through the routers'
// pipelines, every stream individually still delivers in strict request
// order. kary:8^2 gives two routing levels (root + 8 internal processes),
// so runs cross two pipeline dispatches plus batched frames on every path.
func TestPerStreamFIFOUnder64ConcurrentStreams(t *testing.T) {
	const (
		streams = 64
		rounds  = 20
	)
	nw, err := NewNetwork(Config{
		Topology: mustTree(t, "kary:8^2"),
		Batch:    BatchPolicy{MaxBatch: 16, MaxDelay: time.Millisecond},
		OnBackEnd: func(be *BackEnd) error {
			for {
				p, err := be.Recv()
				if err != nil {
					return nil
				}
				v, _ := p.Int(0)
				if err := be.Send(p.StreamID, p.Tag, "%d", v); err != nil {
					return nil
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Shutdown()

	var wg sync.WaitGroup
	errs := make(chan error, streams)
	for s := 0; s < streams; s++ {
		st, err := nw.NewStream(StreamSpec{
			Transformation:  "max",
			Synchronization: "waitforall",
			RecvBuffer:      rounds + 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(s int, st *Stream) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if err := st.Multicast(tagQuery, "%d", int64(r)); err != nil {
					errs <- fmt.Errorf("stream %d round %d multicast: %w", s, r, err)
					return
				}
			}
			for r := 0; r < rounds; r++ {
				p, err := st.RecvTimeout(60 * time.Second)
				if err != nil {
					errs <- fmt.Errorf("stream %d round %d recv: %w", s, r, err)
					return
				}
				if v, _ := p.Int(0); v != int64(r) {
					errs <- fmt.Errorf("stream %d delivered %d at round %d: per-stream FIFO violated", s, v, r)
					return
				}
			}
		}(s, st)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if nw.Metrics().ShardDispatches.Load() == 0 {
		t.Error("ShardDispatches = 0; the routers never dispatched to their pipelines")
	}
}

// TestMulticastEncodesOnceTCP pins the encode-once multicast path: a packet
// fanned out to k TCP child links is serialized exactly once (the links
// share the packet's cached wire bytes), so the encode count for N
// multicasts to 8 back-ends stays O(N), not O(8N).
func TestMulticastEncodesOnceTCP(t *testing.T) {
	const (
		fanout = 8
		rounds = 50
	)
	nw, err := NewNetwork(Config{
		Topology:  mustTree(t, fmt.Sprintf("flat:%d", fanout)),
		Transport: TCPTransport,
		OnBackEnd: func(be *BackEnd) error {
			for {
				if _, err := be.Recv(); err != nil {
					return nil
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := nw.NewStream(StreamSpec{})
	if err != nil {
		t.Fatal(err)
	}
	before := packet.WireEncodes()
	for r := 0; r < rounds; r++ {
		if err := st.Multicast(tagQuery, "%d", int64(r)); err != nil {
			t.Fatal(err)
		}
	}
	// Wait for every back-end to consume everything so all sends happened.
	deadline := time.Now().Add(30 * time.Second)
	for nw.Metrics().PacketsDown.Load() < int64(rounds*fanout) {
		if time.Now().After(deadline) {
			t.Fatalf("back-ends consumed %d of %d packets", nw.Metrics().PacketsDown.Load(), rounds*fanout)
		}
		time.Sleep(time.Millisecond)
	}
	// Stop the overlay first, so every encode it will ever do has been
	// counted: the multicast data and stream control. Credit grants are
	// header-only — framed from their fields, nothing to serialize — so
	// they no longer appear in the count.
	if err := nw.Shutdown(); err != nil {
		t.Fatal(err)
	}
	delta := packet.WireEncodes() - before
	if delta < rounds {
		t.Fatalf("encode count %d below packet count %d; counter broken", delta, rounds)
	}
	// Serial re-encoding would cost ~rounds*fanout; encode-once costs
	// ~rounds plus a handful of control packets.
	if max := int64(rounds + 10); delta > max {
		t.Errorf("%d multicasts to %d children cost %d encodes, want <= %d (encode-once)",
			rounds, fanout, delta, max)
	}
}

// TestNoGoroutineLeakAfterShutdown verifies every goroutine the engine
// spawns — link readers, pipeline workers, heartbeat loops, back-end handlers
// — terminates on all router exit paths: graceful shutdown, a killed
// process (no drain), recovery rewiring, and an orphaned subtree nobody
// adopts (released by the teardown), on both fabrics.
func TestNoGoroutineLeakAfterShutdown(t *testing.T) {
	fabrics := []struct {
		name string
		kind TransportKind
	}{
		{"chan", ChanTransport},
		{"tcp", TCPTransport},
	}
	for _, f := range fabrics {
		t.Run(f.name, func(t *testing.T) {
			before := settledGoroutines(t, runtime.NumGoroutine())
			nw, err := NewNetwork(Config{
				Topology:        mustTree(t, "kary:3^2"),
				Transport:       f.kind,
				HeartbeatPeriod: 5 * time.Millisecond,
				Batch:           BatchPolicy{MaxBatch: 16, MaxDelay: time.Millisecond},
				OnBackEnd: func(be *BackEnd) error {
					for {
						p, err := be.Recv()
						if err != nil {
							return nil
						}
						// Orphaned sends fail until adoption; ignore.
						_ = be.Send(p.StreamID, p.Tag, "%f", float64(be.Rank()))
					}
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			st, err := nw.NewStream(StreamSpec{Transformation: "sum", Synchronization: "waitforall"})
			if err != nil {
				t.Fatal(err)
			}
			round := func() {
				if err := st.Multicast(tagQuery, "%d", int64(1)); err != nil {
					t.Fatal(err)
				}
				if _, err := st.RecvTimeout(30 * time.Second); err != nil {
					t.Fatal(err)
				}
			}
			round()
			// Kill an internal node mid-run (readers + pipeline workers of the
			// victim must die without a drain), recover, keep flowing.
			victim := nw.Tree().InternalNodes()[0]
			if err := nw.Kill(victim); err != nil {
				t.Fatal(err)
			}
			if _, err := nw.Adopt(victim, nil); err != nil {
				t.Fatal(err)
			}
			round()
			// A second crash is never repaired: its orphans wait for an
			// adoption that does not come, and Shutdown must release them.
			if err := nw.Kill(nw.Tree().InternalNodes()[1]); err != nil {
				t.Fatal(err)
			}
			time.Sleep(20 * time.Millisecond) // let the subtree orphan itself
			if err := nw.Shutdown(); err != nil {
				t.Fatal(err)
			}
			after := settledGoroutines(t, before+2)
			if after > before+2 {
				t.Errorf("goroutines: %d before, %d after shutdown — readers or workers leaked", before, after)
			}
		})
	}
}

// TestRouterGoroutinesIndependentOfCores pins the goroutines a rank runs:
// on kary:4^2, every router runs its loop, one up and one down lane and
// one reader per link, and every back-end its link loop and its handler —
// whatever GOMAXPROCS is, and the same with beacons on as off. A rank's
// beacons, and the grants a router's acknowledgements owe its children,
// leave on its egress queues' clocks, which hold no goroutine between
// firings.
func TestRouterGoroutinesIndependentOfCores(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	tree := mustTree(t, "kary:4^2")
	want := map[string]int{}
	for _, r := range append([]Rank{0}, tree.InternalNodes()...) {
		links := len(tree.Children(r))
		if r != 0 {
			links++ // the parent link
		}
		want["(*node).run("]++
		want[").runUp("]++
		want[").runDown("]++
		want["readLink("] += links
	}
	want["(*BackEnd).run("] = len(tree.Leaves())       // the link loop
	want["(*BackEnd).run.func1("] = len(tree.Leaves()) // the handler
	fns := make([]string, 0, len(want))
	for fn := range want {
		fns = append(fns, fn)
	}
	beaconing := int64(tree.Len() - 1)
	for _, hb := range []time.Duration{0, 5 * time.Millisecond} {
		for _, procs := range []int{1, 8} {
			runtime.GOMAXPROCS(procs)
			nw, err := NewNetwork(Config{
				Topology:        tree,
				HeartbeatPeriod: hb,
				OnBackEnd: func(be *BackEnd) error {
					for {
						if _, err := be.Recv(); err != nil {
							return nil
						}
					}
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			// With beacons on, count once every rank has beaconed twice.
			var got map[string]int
			for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
				got = countGoroutines(fns)
				beaconed := hb == 0 || nw.Metrics().HeartbeatsSeen.Load() >= 2*beaconing
				if beaconed && fmt.Sprint(got) == fmt.Sprint(want) || time.Now().After(deadline) {
					break
				}
			}
			seen := nw.Metrics().HeartbeatsSeen.Load()
			if err := nw.Shutdown(); err != nil {
				t.Fatal(err)
			}
			if hb > 0 && seen < 2*beaconing {
				t.Errorf("heartbeats %v: %d beacons heard, want at least %d", hb, seen, 2*beaconing)
			}
			for fn, n := range got {
				if want[fn] != n {
					t.Errorf("heartbeats %v, GOMAXPROCS %d: %d goroutines in %s, want %d", hb, procs, n, fn, want[fn])
				}
			}
			for fn, n := range want {
				if got[fn] == 0 {
					t.Errorf("heartbeats %v, GOMAXPROCS %d: no goroutine in %s, want %d", hb, procs, fn, n)
				}
			}
		}
	}
}

// countGoroutines counts the goroutines the engine started (created by a
// non-test function of this package) in a dump of every stack, by the
// first function of fns their stack holds or else by the function they
// started in: one nobody expected shows by name, and goroutines of the
// runtime (a timer's callback), the testing package or a test do not
// count.
func countGoroutines(fns []string) map[string]int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	const pkg = "repro/internal/core."
	got := map[string]int{}
	for _, g := range strings.Split(string(buf), "\n\n") {
		lines := strings.Split(g, "\n")
		c := slices.IndexFunc(lines, func(l string) bool {
			return strings.HasPrefix(l, "created by "+pkg) && !strings.HasPrefix(l, "created by "+pkg+"Test")
		})
		if c < 2 {
			continue
		}
		fn := strings.TrimPrefix(lines[c-2], pkg) // the function it started in
		if i := strings.LastIndex(fn, "("); i > 0 {
			fn = fn[:i+1]
		}
		for _, f := range fns {
			if strings.Contains(g, f) {
				fn = f
				break
			}
		}
		got[fn]++
	}
	return got
}

// settledGoroutines polls until the goroutine count stops above target or
// stabilizes, giving exiting goroutines (prior tests' teardowns included)
// time to unwind before we baseline or assert.
func settledGoroutines(t *testing.T, target int) int {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	n := runtime.NumGoroutine()
	for time.Now().Before(deadline) {
		n = runtime.NumGoroutine()
		if n <= target {
			return n
		}
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	return n
}

// remappingTimeOut is the "timeout" policy made a SlotRemapper: each
// routing refresh releases what it holds from the router, inside the
// quiesce, so the router and the up lane write the same filter state and
// the race detector sees whether anything orders them. polls and remaps
// count the non-empty releases of each kind, over every instance.
type remappingTimeOut struct {
	*filter.TimeOut
	children      int
	polls, remaps *atomic.Int64
}

func (r *remappingTimeOut) SetNumChildren(n int) { r.children = n }

func (r *remappingTimeOut) Poll(now time.Time, emit filter.RoundFunc) {
	if r.Pending() > 0 && !now.Before(r.Deadline()) {
		r.polls.Add(1)
	}
	r.TimeOut.Poll(now, emit)
}

func (r *remappingTimeOut) RemapSlots(_ []int, n int, emit filter.RoundFunc) {
	r.children = n
	if r.Pending() > 0 {
		r.remaps.Add(1)
	}
	r.Drain(emit)
}

// TestStreamFiltersHaveOneOwner pins the rule that lets a stream's filters
// go without a lock: outside a quiesce only the up lane drives them. On
// one timeout stream, all at once, the up lanes poll the synchronizer,
// the interior routers' down lanes fan out a stream of multicasts, and
// routing refreshes quiesce every router and release its synchronizer from
// the router goroutine. Run it under -race. Every back-end must see every
// multicast in order, and the sums must count every reply exactly once.
func TestStreamFiltersHaveOneOwner(t *testing.T) {
	const rounds = 300
	tree := mustTree(t, "kary:2^2")
	var polls, remaps atomic.Int64
	reg := filter.NewRegistry()
	reg.RegisterSynchronizer("timeout", func() filter.Synchronizer {
		return &remappingTimeOut{TimeOut: filter.NewTimeOut(time.Millisecond), polls: &polls, remaps: &remaps}
	})
	nw, err := NewNetwork(Config{
		Topology: tree,
		Registry: reg,
		OnBackEnd: func(be *BackEnd) error {
			for want := int64(1); ; want++ {
				p, err := be.Recv()
				if err != nil {
					return nil
				}
				v, err := p.Int(0)
				if err != nil {
					return err
				}
				if v != want {
					return fmt.Errorf("back-end %d: multicast %d arrived %dth", be.Rank(), v, want)
				}
				if err := be.Send(p.StreamID, p.Tag, "%f", float64(v)); err != nil {
					return nil
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Shutdown()
	st, err := nw.NewStream(StreamSpec{Transformation: "sum", Synchronization: "timeout"})
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var refreshes atomic.Int64
	var wg sync.WaitGroup
	for _, r := range append([]Rank{0}, tree.InternalNodes()...) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := refreshRouting(nw, r); err != nil {
					t.Error(err)
					return
				}
				refreshes.Add(1)
				time.Sleep(time.Millisecond)
			}
		}()
	}
	sent := make(chan error, 1)
	go func() {
		for i := int64(1); i <= rounds; i++ {
			if err := st.Multicast(tagQuery, "%d", i); err != nil {
				sent <- err
				return
			}
			time.Sleep(100 * time.Microsecond)
		}
		sent <- nil
	}()

	want := float64(len(tree.Leaves()) * rounds * (rounds + 1) / 2)
	var got float64
	var results int
	for got < want {
		p, err := st.RecvTimeout(10 * time.Second)
		if err != nil {
			t.Fatalf("after %d results summing %g of %g: %v", results, got, want, err)
		}
		v, err := p.Float(0)
		if err != nil || v <= 0 {
			t.Fatalf("result %d = %g (%v), want a positive sum", results, v, err)
		}
		got += v
		results++
	}
	close(stop)
	wg.Wait()
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("results sum to %g, want %g", got, want)
	}
	if p, err := st.RecvTimeout(50 * time.Millisecond); err == nil {
		t.Errorf("extra result %v after the total", p)
	}
	if refreshes.Load() == 0 || polls.Load() == 0 {
		t.Errorf("%d routing refreshes and %d polled releases, want both > 0", refreshes.Load(), polls.Load())
	}
	m := nw.Metrics()
	if n := m.FilterErrors.Load(); n != 0 {
		t.Errorf("%d filter errors", n)
	}
	if n := m.DupsDropped.Load(); n != 0 {
		t.Errorf("%d duplicates dropped", n)
	}
	if err := nw.Shutdown(); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d results; %d routing refreshes; %d releases by poll, %d by remap",
		results, refreshes.Load(), polls.Load(), remaps.Load())
}
