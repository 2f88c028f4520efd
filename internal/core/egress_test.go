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

// TestAdaptiveWindowUnchangedOnFailedFlush is the regression test for the
// flush/adapt ordering bug: a dead-link retry loop (retained buffer,
// recoverable owner) used to mutate the adaptive window on every failed
// flush — size-cause retries inflated it, age-cause retries collapsed it
// to 1 — even though nothing was sent.
func TestAdaptiveWindowUnchangedOnFailedFlush(t *testing.T) {
	a, b := transport.NewPair(4)
	pol := BatchPolicy{MaxBatch: 8, MaxDelay: time.Millisecond, Adaptive: true}.normalized()
	var m Metrics
	q := newUpstreamQueue(transport.NewFlowLink(a, 64), pol, &m, nil, nil)
	if q.window != 2 {
		t.Fatalf("adaptive start window = %d, want 2", q.window)
	}
	transport.DropLink(b) // the parent "crashes"

	// Fill the window: the size flush fails, retains, and must not grow
	// the window.
	for i := 0; i < 2; i++ {
		_ = q.send(packet.MustNew(tagQuery, 1, 5, "%d", int64(i)))
	}
	if q.window != 2 {
		t.Errorf("window after failed size flush = %d, want 2", q.window)
	}
	// Age-flush retries against the dead link must not shrink it either.
	for i := 0; i < 5; i++ {
		q.oldest = time.Now().Add(-time.Second) // force the deadline past
		q.pollAge(time.Now())
	}
	if q.window != 2 {
		t.Errorf("window after failed age retries = %d, want 2", q.window)
	}
	if got := q.pending(); got != 2 {
		t.Fatalf("retained %d packets, want 2", got)
	}

	// Reparent onto a live link: the drain re-flushes the retained data,
	// and subsequent successful size flushes adapt again.
	na, nb := transport.NewPair(4)
	q.setLink(transport.NewFlowLink(na, 64))
	got := drainLink(t, nb, 2)
	for i, p := range got {
		if v, _ := p.Int(0); v != int64(i) {
			t.Errorf("packet %d carries %d; retained order lost", i, v)
		}
	}
	for i := 0; i < 2; i++ {
		_ = q.send(packet.MustNew(tagQuery, 1, 5, "%d", int64(i)))
	}
	drainLink(t, nb, 2)
	if q.window != 4 {
		t.Errorf("window after successful size flush = %d, want 4", q.window)
	}
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
	q := newEgressQueue(transport.NewFlowLink(a, 64), pol, &m, nil)

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
	q := newUpstreamQueue(transport.NewFlowLink(a, 64), pol, &m, nil, nil)
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

// TestAgeFlusherRapidStartStop exercises the back-end age flusher's
// stop/drain path: rapid start/stop cycles with enqueues racing the stop
// must neither deadlock, double-fire, nor leave a timer pending after
// return (run under -race in CI).
func TestAgeFlusherRapidStartStop(t *testing.T) {
	nw, err := NewNetwork(Config{
		Topology: mustTree(t, "flat:2"),
		Batch:    BatchPolicy{MaxBatch: 8, MaxDelay: 100 * time.Microsecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Shutdown()
	nw.mu.Lock()
	be := nw.bes[1]
	nw.mu.Unlock()
	if be == nil {
		t.Fatal("no back-end at rank 1")
	}

	for i := 0; i < 300; i++ {
		stop := make(chan struct{})
		done := make(chan struct{})
		go func() {
			be.ageFlusher(stop)
			close(done)
		}()
		_ = be.eg.send(packet.MustNew(tagQuery, 1, 1, "%d", int64(i)))
		select {
		case be.egKick <- struct{}{}:
		default:
		}
		close(stop)
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("age flusher failed to stop")
		}
	}
	// Whatever the raced stops left queued still drains by the age bound
	// once the real flusher (started by be.run) is the only one standing.
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := be.eg.pending()
		if n == 0 {
			break
		}
		select {
		case be.egKick <- struct{}{}:
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d packets still queued; age flusher dead", n)
		}
		time.Sleep(time.Millisecond)
	}
}
