package core

import (
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

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

// TestRootFirstHopIsFIFO: the root's own first hop is one FIFO, as every
// other link is. With the back-end's window exhausted, multicasts of two
// streams queue at the root; once credits return, they leave in the order
// they were queued.
func TestRootFirstHopIsFIFO(t *testing.T) {
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
	first, err := nw.NewStream(StreamSpec{})
	if err != nil {
		t.Fatal(err)
	}
	second, err := nw.NewStream(StreamSpec{})
	if err != nil {
		t.Fatal(err)
	}
	// Fill the window: these four are on the wire before anything queues.
	for v := int64(1); v <= 4; v++ {
		if err := first.Multicast(tagQuery, "%d", v); err != nil {
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
		}{{second, 201}, {first, 101}, {second, 202}, {first, 102}} {
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
	want := []int64{1, 2, 3, 4, 201, 101, 202, 102}
	if got := rec.at(1); !slices.Equal(got, want) {
		t.Fatalf("arrival order %v, want the enqueue order %v", got, want)
	}
}
