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

// TestAbortedSplitKeepsRanksConsistent: Tree() and the live view are one
// record of the shape. A split that migrates nothing leaves a stillborn
// sibling behind, and every rank handed out afterwards — by AttachBackEnd
// or a later SplitNode — must be in Tree() under the parent the view
// gives it, with Tree() covering exactly the ranks the view has assigned.
func TestAbortedSplitKeepsRanksConsistent(t *testing.T) {
	nw := recoverableEcho(t, "kary:4^2", 0) // internals 1..4; leaves 5..20
	defer nw.Shutdown()
	// Rank 1's back-ends die unrecovered: its split finds no child to move.
	for r := Rank(5); r <= 8; r++ {
		if err := nw.Kill(r); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := nw.SplitNode(1); err == nil {
		t.Fatal("split of a node whose children are all dead: want error")
	}

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
	r, err := nw.AttachBackEnd(2)
	if err != nil {
		t.Fatal(err)
	}
	consistent(r)
	q, err := nw.SplitNode(3)
	if err != nil {
		t.Fatal(err)
	}
	consistent(q)
	if r, err = nw.AttachBackEnd(q); err != nil {
		t.Fatal(err)
	}
	consistent(r)

	// The attached back-end under the fresh sibling answers a new stream.
	st, err := nw.NewStream(StreamSpec{Endpoints: []Rank{r}, Transformation: "sum", Synchronization: "waitforall"})
	if err != nil {
		t.Fatal(err)
	}
	sumRound(t, st, float64(r))
}
