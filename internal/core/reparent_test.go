package core

import (
	"testing"
	"time"
)

// TestRootAdoptRacesShutdown: the front-end adopting a dead child's
// orphans while Shutdown sweeps its links must not strand them. An orphan
// installed after the sweep snapshotted the links never hears the
// announcement from it, and once reparented it no longer watches teardown
// either, so the install command itself has to pass the announcement on.
// Every Shutdown must return.
func TestRootAdoptRacesShutdown(t *testing.T) {
	rows := []struct {
		name  string
		kind  TransportKind
		iters int
	}{
		{"chan", ChanTransport, 80},
		{"tcp", TCPTransport, 20},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			for i := 0; i < row.iters; i++ {
				// Offsets sweep 0–950 µs: the hang sits where the adoption's
				// install lands just after the announcement sweep.
				offset := time.Duration(i%20) * 50 * time.Microsecond
				nw := echoValue(t, mustTree(t, "kary:2^2"), row.kind)
				if err := nw.Kill(1); err != nil {
					t.Fatal(err)
				}
				adopted := make(chan struct{})
				go func() {
					defer close(adopted)
					_, _ = nw.Adopt(1, nil) // ErrShutdown when teardown wins
				}()
				time.Sleep(offset)
				done := make(chan error, 1)
				go func() { done <- nw.Shutdown() }()
				select {
				case <-done:
				case <-time.After(10 * time.Second):
					t.Fatalf("iteration %d (offset %v): Shutdown hung", i, offset)
				}
				select {
				case <-adopted:
				case <-time.After(10 * time.Second):
					t.Fatalf("iteration %d (offset %v): Adopt hung after Shutdown", i, offset)
				}
			}
		})
	}
}

// TestAbortedAttachKeepsRanksConsistent: Tree() and the live view are one
// record of the shape. An attach under a crashed, not yet adopted router
// leaves a stillborn rank behind, and every rank handed out — stillborn
// or live, before or after the adoption — must be in Tree() under the
// parent the view gives it, with Tree() covering exactly the ranks the
// view has assigned.
func TestAbortedAttachKeepsRanksConsistent(t *testing.T) {
	nw := recoverableEcho(t, "kary:4^2", 0) // internals 1..4; leaves 5..20
	defer nw.Shutdown()

	// Tree() must agree with the view right after every rank handed out.
	consistent := func(r Rank) {
		t.Helper()
		tree := nw.Tree()
		nw.mu.Lock()
		assigned, parent := len(nw.view.parent), nw.view.parent[r]
		nw.mu.Unlock()
		if tree.Len() != assigned {
			t.Errorf("after handing out %d: Tree().Len() = %d, the view has assigned %d ranks", r, tree.Len(), assigned)
		}
		if n := tree.Node(r); n == nil {
			t.Errorf("rank %d was handed out but Tree() has no node for it", r)
		} else if n.Parent != parent {
			t.Errorf("Tree() puts %d under %d, the view under %d", r, n.Parent, parent)
		}
	}
	// Rank 1 is killed but not yet adopted: the attach under it is aborted.
	if err := nw.Kill(1); err != nil {
		t.Fatal(err)
	}
	if _, err := nw.AttachBackEnd(1); err == nil {
		t.Fatal("attach under a crashed router: want error")
	}
	consistent(21)
	r, err := nw.AttachBackEnd(2)
	if err != nil {
		t.Fatal(err)
	}
	consistent(r)
	if _, err := nw.Adopt(1, nil); err != nil {
		t.Fatal(err)
	}
	if r, err = nw.AttachBackEnd(3); err != nil {
		t.Fatal(err)
	}
	consistent(r)

	// The back-end attached after the adoption answers a new stream.
	st, err := nw.NewStream(StreamSpec{Endpoints: []Rank{r}, Transformation: "sum", Synchronization: "waitforall"})
	if err != nil {
		t.Fatal(err)
	}
	sumRound(t, st, float64(r))
}

// TestBareConfigRecoversAndMutates: recovery is the engine, not a mode —
// Adopt and AttachBackEnd both work on a bare Config{Topology, OnBackEnd},
// and the same stream keeps answering in full across them.
func TestBareConfigRecoversAndMutates(t *testing.T) {
	nw := echoValue(t, mustTree(t, "kary:2^2"), ChanTransport) // 0; 1,2; leaves 3..6
	defer nw.Shutdown()
	st, err := nw.NewStream(StreamSpec{Transformation: "sum", Synchronization: "waitforall"})
	if err != nil {
		t.Fatal(err)
	}
	sumRound(t, st, 18)
	r, err := nw.AttachBackEnd(1)
	if err != nil {
		t.Fatalf("AttachBackEnd on a bare config: %v", err)
	}
	sumRound(t, st, 18) // membership was fixed when the stream opened
	if err := nw.Kill(2); err != nil {
		t.Fatal(err)
	}
	if _, err := nw.Adopt(2, nil); err != nil {
		t.Fatalf("Adopt on a bare config: %v", err)
	}
	sumRound(t, st, 18)
	all, err := nw.NewStream(StreamSpec{Transformation: "sum", Synchronization: "waitforall"})
	if err != nil {
		t.Fatal(err)
	}
	sumRound(t, all, 18+float64(r))
}
