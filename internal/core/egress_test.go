package core

import (
	"strings"
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/transport"
)

// drainLink collects n packets from l, failing the test on EOF/timeout.
func drainLink(t *testing.T, l transport.Link, n int) []*packet.Packet {
	t.Helper()
	out := make([]*packet.Packet, 0, n)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for len(out) < n {
			ps, err := transport.RecvBatch(l)
			if err != nil {
				return
			}
			out = append(out, ps...)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("drained only %d of %d packets", len(out), n)
	}
	if len(out) != n {
		t.Fatalf("drained %d packets, want %d", len(out), n)
	}
	return out
}

// TestControlKeepsFIFOAcrossFrameSplit pins the frame-splitting FIFO
// invariant: a sendNow control packet queued behind more data than one
// wire frame may carry keeps its position across the multi-frame split —
// it flushes immediately but never overtakes the data queued before it.
// maxEgressFrameBytes is shrunk so the split happens without queueing
// 256 MiB.
func TestControlKeepsFIFOAcrossFrameSplit(t *testing.T) {
	old := maxEgressFrameBytes
	maxEgressFrameBytes = 4096
	defer func() { maxEgressFrameBytes = old }()

	a, b := transport.NewPair(64)
	pol := BatchPolicy{MaxBatch: 1 << 16, MaxDelay: time.Hour}.normalized()
	var m Metrics
	q := newEgressQueue(transport.NewFlowLink(a, 64), pol, &m)
	// No clock: the data must stay queued until the control flush.
	q.stop()

	payload := strings.Repeat("x", 512)
	const data = 7 // ~3.6 KiB encoded: just under the shrunk frame bound
	for i := 0; i < data; i++ {
		if err := q.send(packet.MustNew(tagQuery, 1, 5, "%d %s", int64(i), payload)); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.FramesSent.Load(); got != 0 {
		t.Fatalf("data flushed early (%d frames); the test needs it queued", got)
	}
	ctrl := packet.MustNew(packet.TagControl, 0, 5, "%d %s", int64(99), payload)
	if err := q.sendNow(ctrl); err != nil {
		t.Fatal(err)
	}
	if got := m.FramesSent.Load(); got < 2 {
		t.Fatalf("control flush sent %d frames, want a >=2-frame split", got)
	}

	got := drainLink(t, b, data+1)
	for i := 0; i < data; i++ {
		if got[i].Tag == packet.TagControl {
			t.Fatalf("control packet overtook data at position %d", i)
		}
		if v, _ := got[i].Int(0); v != int64(i) {
			t.Errorf("data packet %d carries %d; FIFO order lost across the split", i, v)
		}
	}
	if got[data].Tag != packet.TagControl {
		t.Fatalf("last packet tag = %d, want control", got[data].Tag)
	}
}

// TestRetainedReflushSplitsKeepFIFO: a retained buffer that grew past the
// frame bound across a dead-link window (with a control packet retained
// mid-queue) re-flushes after reparenting as multiple frames in exact
// accept order.
func TestRetainedReflushSplitsKeepFIFO(t *testing.T) {
	old := maxEgressFrameBytes
	maxEgressFrameBytes = 4096
	defer func() { maxEgressFrameBytes = old }()

	a, b := transport.NewPair(64)
	pol := BatchPolicy{MaxBatch: 1 << 16, MaxDelay: time.Hour}.normalized()
	var m Metrics
	q := newUpstreamQueue(transport.NewFlowLink(a, 64), pol, &m)
	// No clock: only the control packet's flush tries the dead link, and
	// nothing is in flight when the queue is counted.
	q.stop()
	transport.DropLink(b)

	payload := strings.Repeat("y", 512)
	const data = 20 // several frame bounds worth, accumulated while dead
	for i := 0; i < data; i++ {
		_ = q.send(packet.MustNew(tagQuery, 1, 5, "%d %s", int64(i), payload))
		if i == 12 { // a control packet lands mid-queue while the link is dead
			_ = q.sendNow(packet.MustNew(packet.TagControl, 0, 5, "%d", int64(7)))
		}
	}
	if got := q.pending(); got != data+1 {
		t.Fatalf("retained %d packets, want %d", got, data+1)
	}

	na, nb := transport.NewPair(64)
	q.setLink(transport.NewFlowLink(na, 64))
	got := drainLink(t, nb, data+1)
	want := 0
	for i, p := range got {
		if p.Tag == packet.TagControl {
			if i != 13 {
				t.Errorf("control packet at position %d, want 13", i)
			}
			continue
		}
		if v, _ := p.Int(0); v != int64(want) {
			t.Errorf("position %d carries %d, want %d", i, v, want)
		}
		want++
	}
	if m.FramesSent.Load() < 3 {
		t.Errorf("re-flush sent %d frames, want a >=3-frame split", m.FramesSent.Load())
	}
}

// TestReplayAcrossTwoReplacements: an upstream queue replaces its parent
// link twice, the second time before the first replay has left. Six
// packets carrying inbound runs' records go out and the peer acknowledges
// two. The first replacement takes one replay frame and dies; more data
// is queued behind. The second replacement must carry the four
// unacknowledged packets once each, in order, ahead of the new data, and
// its acknowledgement must complete every record.
func TestReplayAcrossTwoReplacements(t *testing.T) {
	old := maxEgressFrameBytes
	maxEgressFrameBytes = 600 // one 512-byte payload per frame
	defer func() { maxEgressFrameBytes = old }()

	const window = 8
	a, b := transport.NewPair(64)
	pol := BatchPolicy{MaxBatch: 1 << 16, MaxDelay: time.Hour}.normalized()
	var m Metrics
	q := newUpstreamQueue(transport.NewFlowLink(a, window), pol, &m)
	// No clock: only the drain and the replacements flush.
	q.stop()
	c, _ := transport.NewPair(64)
	child := transport.NewFlowLink(c, 64)
	tr := &inOrder{}

	payload := strings.Repeat("z", 512)
	var want []*packet.Packet
	for i := 0; i < 6; i++ {
		p := packet.MustNew(tagQuery, 1, 5, "%d %s", int64(i), payload)
		ret := pendRetire{src: child, tr: tr, start: tr.assign(1), n: 1}
		if err := q.sendAck(p, true, ret); err != nil {
			t.Fatal(err)
		}
		want = append(want, p)
	}
	if err := q.drain(); err != nil {
		t.Fatal(err)
	}
	drainLink(t, b, 6)
	q.flow.Refill(2) // the peer acknowledges the first two
	if tr.low != 2 {
		t.Fatalf("in-order tracker at %d after the first acknowledgement, want 2", tr.low)
	}

	// The first replacement buffers one frame; its peer dies 50 ms later,
	// failing the blocked second frame.
	a2, b2 := transport.NewPair(1)
	time.AfterFunc(50*time.Millisecond, func() { transport.DropLink(b2) })
	q.setLink(transport.NewFlowLink(a2, window))
	if n := q.pending(); n != 3 {
		t.Fatalf("%d of the four replayed packets await the second replacement, want 3", n)
	}
	for i := 6; i < 8; i++ {
		p := packet.MustNew(tagQuery, 1, 5, "%d %s", int64(i), payload)
		if err := q.send(p); err != nil {
			t.Fatal(err)
		}
		want = append(want, p)
	}

	a3, b3 := transport.NewPair(64)
	q.setLink(transport.NewFlowLink(a3, window))
	got := drainLink(t, b3, 6)
	for i, p := range got {
		if p != want[2+i] {
			v, _ := p.Int(0)
			t.Errorf("wire position %d carries packet %d, want %d", i, v, 2+i)
		}
	}
	q.mu.Lock()
	queued, kept := q.sched.len(), q.sched.kept
	q.mu.Unlock()
	if queued != 0 || kept != 6 {
		t.Errorf("after the second replacement %d packets are queued and %d kept, want 0 and the 6 sent", queued, kept)
	}

	q.flow.Refill(6)
	if tr.low != 6 {
		t.Errorf("in-order tracker at %d after the replacement's acknowledgement, want 6", tr.low)
	}
	if hw := m.ReplayRingHighWater.Load(); hw > window {
		t.Errorf("kept high water %d, past the window %d", hw, window)
	}
}
