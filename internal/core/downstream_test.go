package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/filter"
	"repro/internal/packet"
)

// TestDownstreamFilter exercises the bidirectional filtering extension (the
// paper's future work): a downstream filter transforms multicast packets at
// every communication process on the way to the members. Here each level
// increments a hop counter, so a back-end at depth 2 receives hops=2 —
// proving the filter ran once per level.
func TestDownstreamFilter(t *testing.T) {
	reg := filter.NewRegistry()
	reg.RegisterTransformation("hops", func() filter.Transformation {
		return filter.TransformFunc(func(in []*packet.Packet, out filter.Emitter) error {
			for _, p := range in {
				h, err := p.Int(0)
				if err != nil {
					return err
				}
				q, err := packet.New(p.Tag, p.StreamID, p.SrcRank, "%d", h+1)
				if err != nil {
					return err
				}
				out.Emit(q)
			}
			return nil
		})
	})
	tree := mustTree(t, "kary:2^2") // back-ends at depth 2, one comm level
	nw, err := NewNetwork(Config{
		Topology: tree,
		Registry: reg,
		OnBackEnd: func(be *BackEnd) error {
			for {
				p, err := be.Recv()
				if err != nil {
					return nil
				}
				h, err := p.Int(0)
				if err != nil {
					return err
				}
				if err := be.Send(p.StreamID, p.Tag, "%d", h); err != nil {
					return nil
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Shutdown()

	st, err := nw.NewStream(StreamSpec{
		Transformation:     "max",
		Synchronization:    "waitforall",
		DownTransformation: "hops",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Multicast(tagQuery, "%d", int64(0)); err != nil {
		t.Fatal(err)
	}
	p, err := st.RecvTimeout(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// One comm level between front-end and back-ends: the filter runs once.
	if v, _ := p.Int(0); v != 1 {
		t.Errorf("hops at back-end = %d, want 1 (one comm level)", v)
	}

	// On a deeper tree the count rises with the depth.
	tree3 := mustTree(t, "kary:2^3")
	nw3, err := NewNetwork(Config{
		Topology: tree3,
		Registry: reg,
		OnBackEnd: func(be *BackEnd) error {
			for {
				p, err := be.Recv()
				if err != nil {
					return nil
				}
				h, _ := p.Int(0)
				if err := be.Send(p.StreamID, p.Tag, "%d", h); err != nil {
					return nil
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer nw3.Shutdown()
	st3, err := nw3.NewStream(StreamSpec{
		Transformation:     "max",
		Synchronization:    "waitforall",
		DownTransformation: "hops",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := st3.Multicast(tagQuery, "%d", int64(0)); err != nil {
		t.Fatal(err)
	}
	p, err = st3.RecvTimeout(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := p.Int(0); v != 2 {
		t.Errorf("hops on 3-level tree = %d, want 2 (two comm levels)", v)
	}
}

// TestDownstreamFilterSuppression: a downstream filter may suppress packets
// (return nothing), pruning the multicast below a level.
func TestDownstreamFilterSuppression(t *testing.T) {
	reg := filter.NewRegistry()
	reg.RegisterTransformation("drop-all", func() filter.Transformation {
		return filter.TransformFunc(func([]*packet.Packet, filter.Emitter) error {
			return nil
		})
	})
	tree := mustTree(t, "kary:2^2")
	nw, err := NewNetwork(Config{
		Topology: tree,
		OnBackEnd: func(be *BackEnd) error {
			for {
				p, err := be.Recv()
				if err != nil {
					return nil
				}
				if err := be.Send(p.StreamID, p.Tag, "%f", 1.0); err != nil {
					return nil
				}
			}
		},
		Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Shutdown()
	st, err := nw.NewStream(StreamSpec{
		Transformation:     "sum",
		Synchronization:    "waitforall",
		DownTransformation: "drop-all",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Multicast(tagQuery, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := st.RecvTimeout(300 * time.Millisecond); err != ErrTimeout {
		t.Errorf("suppressed multicast still produced a response: %v", err)
	}
}

func TestDownstreamFilterValidation(t *testing.T) {
	tree := mustTree(t, "kary:2^2")
	nw := echoValue(t, tree, ChanTransport)
	defer nw.Shutdown()
	if _, err := nw.NewStream(StreamSpec{DownTransformation: "no-such"}); err == nil {
		t.Error("unknown downstream filter: want error")
	}
}

// recorder collects the integer payloads each back-end receives, for
// back-ends that block on gate before their first Recv.
type recorder struct {
	mu  sync.Mutex
	got map[Rank][]int64
}

func (r *recorder) handler(gate <-chan struct{}) func(be *BackEnd) error {
	return func(be *BackEnd) error {
		<-gate
		for {
			p, err := be.Recv()
			if err != nil {
				return nil
			}
			v, _ := p.Int(0)
			r.mu.Lock()
			if r.got == nil {
				r.got = map[Rank][]int64{}
			}
			r.got[be.Rank()] = append(r.got[be.Rank()], v)
			r.mu.Unlock()
		}
	}
}

// at returns a copy of what rank has received so far.
func (r *recorder) at(rank Rank) []int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]int64(nil), r.got[rank]...)
}

func contains(vs []int64, v int64) bool {
	for _, w := range vs {
		if w == v {
			return true
		}
	}
	return false
}

// rootQueued counts the packets waiting in the root's child egress queues.
func rootQueued(nw *Network) int {
	n := nw.root
	n.epMu.RLock()
	defer n.epMu.RUnlock()
	total := 0
	for _, q := range n.childOut {
		total += q.pending()
	}
	return total
}

// TestRootQueuedMulticastReachesAdoptedOrphans is DESIGN §2's downstream
// rule at the root: a multicast the root accepted but never put on the
// wire — queued, credit-stalled behind a child's exhausted window — is not
// lost when that child dies. The adoption fences the child's queue and
// re-routes what it held to the adopted orphans, exactly as at every
// router.
func TestRootQueuedMulticastReachesAdoptedOrphans(t *testing.T) {
	gate := make(chan struct{})
	var rec recorder
	nw, err := NewNetwork(Config{
		Topology:   mustTree(t, "kary:2^2"), // root → 1, 2; 1 → 3, 4
		LinkWindow: 2,
		OnBackEnd:  rec.handler(gate),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Shutdown()
	st, err := nw.NewStream(StreamSpec{Endpoints: []Rank{3, 4}})
	if err != nil {
		t.Fatal(err)
	}

	// Multicast distinct values until a send blocks: every window under
	// rank 1 is exhausted behind the gated back-ends, and the last value
	// accepted is still at the root.
	var accepted atomic.Int64
	stop := make(chan struct{})
	producing := make(chan struct{})
	go func() {
		defer close(producing)
		for v := int64(1); v <= 1000; v++ {
			select {
			case <-stop:
				return
			default:
			}
			if st.Multicast(tagQuery, "%d", v) != nil {
				return
			}
			accepted.Store(v)
		}
	}()
	ungate := sync.OnceFunc(func() { close(gate) })
	defer func() { close(stop); ungate(); <-producing }()
	last, still := int64(0), 0
	for deadline := time.Now().Add(5 * time.Second); still < 10; time.Sleep(20 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the multicasts never blocked on rank 1's windows")
		}
		if v := accepted.Load(); v > 0 && v == last {
			still++
		} else {
			last, still = v, 0
		}
	}

	if err := nw.Kill(1); err != nil {
		t.Fatal(err)
	}
	if _, err := nw.Adopt(1, nil); err != nil {
		t.Fatal(err)
	}
	ungate()
	for deadline := time.Now().Add(5 * time.Second); !contains(rec.at(3), last) || !contains(rec.at(4), last); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("value %d, queued at the root when rank 1 died, never reached its orphans: rank 3 got %v, rank 4 got %v",
				last, rec.at(3), rec.at(4))
		}
	}
}

// TestRootFirstHopHonorsPriority: StreamSpec.Priority orders the root's
// own first hop, as it does every other link. With the back-end's window
// exhausted, low-priority multicasts queue at the root, then
// high-priority ones; once credits return, the high-priority packets leave
// first.
func TestRootFirstHopHonorsPriority(t *testing.T) {
	gate := make(chan struct{})
	var rec recorder
	nw, err := NewNetwork(Config{
		Topology:   mustTree(t, "flat:1"),
		LinkWindow: 4,
		OnBackEnd:  rec.handler(gate),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Shutdown()
	low, err := nw.NewStream(StreamSpec{Priority: 0})
	if err != nil {
		t.Fatal(err)
	}
	high, err := nw.NewStream(StreamSpec{Priority: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Fill the window: these four are on the wire before anything queues.
	for v := int64(1); v <= 4; v++ {
		if err := low.Multicast(tagQuery, "%d", v); err != nil {
			t.Fatal(err)
		}
	}
	eventually(t, "the window's packets leave the root", func() bool { return rootQueued(nw) == 0 })

	queued := make(chan struct{})
	go func() {
		defer close(queued)
		for _, m := range []struct {
			st *Stream
			v  int64
		}{{low, 101}, {low, 102}, {high, 201}, {high, 202}} {
			if err := m.st.Multicast(tagQuery, "%d", m.v); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	select {
	case <-queued:
	case <-time.After(500 * time.Millisecond): // a multicast is blocked instead of queued
	}
	close(gate)
	eventually(t, "all eight packets arrive", func() bool { return len(rec.at(1)) == 8 })
	<-queued
	pos := map[int64]int{}
	for i, v := range rec.at(1) {
		pos[v] = i
	}
	for _, hi := range []int64{201, 202} {
		for _, lo := range []int64{101, 102} {
			if pos[hi] > pos[lo] {
				t.Fatalf("arrival order %v: queued high-priority %d left the root after queued low-priority %d", rec.at(1), hi, lo)
			}
		}
	}
}
