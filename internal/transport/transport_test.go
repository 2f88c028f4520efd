package transport

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/topology"
)

func mkPkt(tag int32, v int64) *packet.Packet {
	return packet.MustNew(tag, 1, 0, "%d", v)
}

// linkFactory lets every behavioural test run against both transports.
type linkFactory struct {
	name string
	make func(t *testing.T) (Link, Link)
}

func factories() []linkFactory {
	return []linkFactory{
		// The buffer must cover the largest burst any shared test sends
		// before its first Recv (currently 10 packets).
		{"chan", func(t *testing.T) (Link, Link) { return NewPair(16) }},
		{"tcp", func(t *testing.T) (Link, Link) {
			t.Helper()
			ln, err := Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			type res struct {
				l   Link
				err error
			}
			ch := make(chan res, 1)
			go func() {
				l, err := ln.Accept()
				ch <- res{l, err}
			}()
			a, err := Dial(ln.Addr())
			if err != nil {
				t.Fatal(err)
			}
			r := <-ch
			if r.err != nil {
				t.Fatal(r.err)
			}
			return a, r.l
		}},
	}
}

func TestLinkSendRecv(t *testing.T) {
	for _, f := range factories() {
		t.Run(f.name, func(t *testing.T) {
			a, b := f.make(t)
			defer a.Close()
			defer b.Close()
			for i := int64(0); i < 10; i++ {
				if err := a.Send(mkPkt(100, i)); err != nil {
					t.Fatalf("Send %d: %v", i, err)
				}
			}
			for i := int64(0); i < 10; i++ {
				p, err := b.Recv()
				if err != nil {
					t.Fatalf("Recv %d: %v", i, err)
				}
				if v, _ := p.Int(0); v != i {
					t.Fatalf("FIFO violation: got %d want %d", v, i)
				}
			}
		})
	}
}

func TestLinkBidirectional(t *testing.T) {
	for _, f := range factories() {
		t.Run(f.name, func(t *testing.T) {
			a, b := f.make(t)
			defer a.Close()
			defer b.Close()
			if err := a.Send(mkPkt(1, 10)); err != nil {
				t.Fatal(err)
			}
			if err := b.Send(mkPkt(2, 20)); err != nil {
				t.Fatal(err)
			}
			p, err := b.Recv()
			if err != nil || p.Tag != 1 {
				t.Fatalf("b.Recv: %v %v", p, err)
			}
			p, err = a.Recv()
			if err != nil || p.Tag != 2 {
				t.Fatalf("a.Recv: %v %v", p, err)
			}
		})
	}
}

func TestLinkCloseUnblocksRecv(t *testing.T) {
	for _, f := range factories() {
		t.Run(f.name, func(t *testing.T) {
			a, b := f.make(t)
			defer b.Close()
			errCh := make(chan error, 1)
			go func() {
				_, err := b.Recv()
				errCh <- err
			}()
			time.Sleep(10 * time.Millisecond)
			a.Close()
			select {
			case err := <-errCh:
				if !errors.Is(err, io.EOF) {
					t.Errorf("Recv after peer close: %v, want io.EOF", err)
				}
			case <-time.After(2 * time.Second):
				t.Error("Recv did not unblock after peer close")
			}
		})
	}
}

func TestLinkDrainAfterClose(t *testing.T) {
	// Packets sent before close must still be receivable (graceful drain) on
	// the chan transport; TCP makes the same guarantee via kernel buffers,
	// so test both.
	for _, f := range factories() {
		t.Run(f.name, func(t *testing.T) {
			a, b := f.make(t)
			defer b.Close()
			if err := a.Send(mkPkt(1, 42)); err != nil {
				t.Fatal(err)
			}
			if f.name == "tcp" {
				// Give the kernel a moment to move bytes before close.
				time.Sleep(20 * time.Millisecond)
			}
			a.Close()
			p, err := b.Recv()
			if err != nil {
				t.Fatalf("Recv of drained packet: %v", err)
			}
			if v, _ := p.Int(0); v != 42 {
				t.Fatalf("drained packet = %v", p)
			}
			if _, err := b.Recv(); !errors.Is(err, io.EOF) {
				t.Fatalf("Recv after drain: %v, want io.EOF", err)
			}
		})
	}
}

func TestChanSendAfterCloseFails(t *testing.T) {
	a, b := NewPair(4)
	defer b.Close()
	a.Close()
	if err := a.Send(mkPkt(1, 1)); !errors.Is(err, ErrClosed) {
		t.Errorf("Send on closed end: %v, want ErrClosed", err)
	}
	if err := b.Send(mkPkt(1, 1)); !errors.Is(err, ErrClosed) {
		t.Errorf("Send to closed peer: %v, want ErrClosed", err)
	}
}

func TestChanBackpressure(t *testing.T) {
	a, b := NewPair(2)
	defer a.Close()
	defer b.Close()
	// Fill the buffer.
	for i := 0; i < 2; i++ {
		if err := a.Send(mkPkt(1, int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	// Third send must block until the receiver drains.
	sent := make(chan struct{})
	go func() {
		a.Send(mkPkt(1, 2))
		close(sent)
	}()
	select {
	case <-sent:
		t.Fatal("Send did not block on full buffer")
	case <-time.After(30 * time.Millisecond):
	}
	if _, err := b.Recv(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-sent:
	case <-time.After(2 * time.Second):
		t.Fatal("Send did not complete after drain")
	}
}

func TestChanConcurrentSenders(t *testing.T) {
	a, b := NewPair(8)
	defer a.Close()
	defer b.Close()
	const senders, per = 8, 100
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := a.Send(mkPkt(int32(100+s), int64(i))); err != nil {
					t.Errorf("sender %d: %v", s, err)
					return
				}
			}
		}(s)
	}
	got := make(map[int32]int64)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < senders*per; i++ {
			p, err := b.Recv()
			if err != nil {
				t.Errorf("Recv: %v", err)
				return
			}
			v, _ := p.Int(0)
			// Per-sender FIFO: values from one tag must arrive in order.
			if last, ok := got[p.Tag]; ok && v != last+1 {
				t.Errorf("tag %d: got %d after %d", p.Tag, v, last)
				return
			}
			got[p.Tag] = v
		}
	}()
	wg.Wait()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("receiver did not finish")
	}
}

func TestTCPLargePayload(t *testing.T) {
	fs := factories()
	a, b := fs[1].make(t)
	defer a.Close()
	defer b.Close()
	big := make([]float64, 1<<16)
	for i := range big {
		big[i] = float64(i)
	}
	p := packet.MustNew(100, 1, 0, "%af", big)
	go func() {
		if err := a.Send(p); err != nil {
			t.Errorf("Send: %v", err)
		}
	}()
	q, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	xs, err := q.FloatArray(0)
	if err != nil || len(xs) != len(big) || xs[12345] != 12345 {
		t.Fatalf("large payload corrupted: len=%d err=%v", len(xs), err)
	}
}

func TestChanFabricShape(t *testing.T) {
	tr, err := topology.KAry(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	eps := NewChanFabric(tr)
	if len(eps) != tr.Len() {
		t.Fatalf("fabric has %d endpoints, want %d", len(eps), tr.Len())
	}
	if eps[0].Parent != nil {
		t.Error("root has a parent link")
	}
	if len(eps[0].Children) != 4 {
		t.Errorf("root has %d child links", len(eps[0].Children))
	}
	for _, leaf := range tr.Leaves() {
		if eps[leaf].Parent == nil {
			t.Errorf("leaf %d missing parent link", leaf)
		}
		if len(eps[leaf].Children) != 0 {
			t.Errorf("leaf %d has child links", leaf)
		}
	}
}

func TestChanFabricEndToEnd(t *testing.T) {
	tr, _ := topology.KAry(2, 2)
	eps := NewChanFabric(tr)
	// Leaf 3 (first child of node 1) sends; route manually up to root.
	if err := eps[3].Parent.Send(mkPkt(100, 99)); err != nil {
		t.Fatal(err)
	}
	p, err := eps[1].Children[0].Recv()
	if err != nil {
		t.Fatal(err)
	}
	if err := eps[1].Parent.Send(p); err != nil {
		t.Fatal(err)
	}
	q, err := eps[0].Children[0].Recv()
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := q.Int(0); v != 99 {
		t.Fatalf("routed packet = %v", q)
	}
}

func TestTCPFabricEndToEnd(t *testing.T) {
	tr, _ := topology.KAry(2, 1)
	eps, err := NewTCPFabric(tr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, ep := range eps {
			ep.Close()
		}
	}()
	if err := eps[1].Parent.Send(mkPkt(100, 7)); err != nil {
		t.Fatal(err)
	}
	p, err := eps[0].Children[0].Recv()
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := p.Int(0); v != 7 {
		t.Fatalf("got %v", p)
	}
}

func TestEndpointClose(t *testing.T) {
	tr, _ := topology.Flat(3)
	eps := NewChanFabric(tr)
	if err := eps[0].Close(); err != nil {
		t.Fatal(err)
	}
	for _, leaf := range tr.Leaves() {
		if err := eps[leaf].Parent.Send(mkPkt(1, 1)); !errors.Is(err, ErrClosed) {
			t.Errorf("leaf %d Send after root close: %v", leaf, err)
		}
	}
}

func BenchmarkChanLinkRoundTrip(b *testing.B) {
	a, bb := NewPair(64)
	defer a.Close()
	defer bb.Close()
	p := mkPkt(100, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := a.Send(p); err != nil {
			b.Fatal(err)
		}
		if _, err := bb.Recv(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTCPLinkRoundTrip(b *testing.B) {
	ln, err := Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	ch := make(chan Link, 1)
	go func() {
		l, err := ln.Accept()
		if err != nil {
			b.Error(err)
			return
		}
		ch <- l
	}()
	a, err := Dial(ln.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer a.Close()
	peer := <-ch
	defer peer.Close()
	go func() {
		for {
			p, err := peer.Recv()
			if err != nil {
				return
			}
			if err := peer.Send(p); err != nil {
				return
			}
		}
	}()
	p := mkPkt(100, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.Send(p); err != nil {
			b.Fatal(err)
		}
		if _, err := a.Recv(); err != nil {
			b.Fatal(err)
		}
	}
}

func ExampleNewPair() {
	a, b := NewPair(1)
	defer a.Close()
	defer b.Close()
	a.Send(packet.MustNew(100, 1, 0, "%s", "hello"))
	p, _ := b.Recv()
	s, _ := p.Str(0)
	fmt.Println(s)
	// Output: hello
}

// TestChanDropLosesInFlight: Drop models a crash — packets buffered on
// the wire are lost and the peer sees EOF immediately, deterministically
// (regression: the Recv fast path used to drain them).
func TestChanDropLosesInFlight(t *testing.T) {
	a, b := NewPair(8)
	for i := 0; i < 3; i++ {
		if err := a.Send(packet.MustNew(100, 1, 0, "%d", int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	a.(Dropper).Drop()
	if p, err := b.Recv(); err != io.EOF {
		t.Fatalf("Recv after peer drop = %v, %v; want io.EOF", p, err)
	}
	if err := b.Send(packet.MustNew(100, 1, 0, "%d", int64(9))); err != ErrClosed {
		t.Fatalf("Send after peer drop = %v; want ErrClosed", err)
	}
}

// TestChanCloseStillDrains: ordinary Close keeps the graceful contract —
// the peer drains in-flight packets before EOF.
func TestChanCloseStillDrains(t *testing.T) {
	a, b := NewPair(8)
	if err := a.Send(packet.MustNew(100, 1, 0, "%d", int64(7))); err != nil {
		t.Fatal(err)
	}
	a.Close()
	p, err := b.Recv()
	if err != nil {
		t.Fatalf("Recv after peer close: %v", err)
	}
	if v, _ := p.Int(0); v != 7 {
		t.Errorf("drained %d, want 7", v)
	}
	if _, err := b.Recv(); err != io.EOF {
		t.Errorf("second Recv = %v, want io.EOF", err)
	}
}

// pipeConn is a connection over a pipe: the TCP link's writes, and its
// non-blocking write's descriptor, are the write end's, its reads the read
// end's. A pipe takes a write of up to PIPE_BUF bytes whole or not at all,
// so a link over it fills without a partial frame.
type pipeConn struct {
	net.Conn
	r, w *os.File
}

func (c pipeConn) Write(b []byte) (int, error)           { return c.w.Write(b) }
func (c pipeConn) Read(b []byte) (int, error)            { return c.r.Read(b) }
func (c pipeConn) SyscallConn() (syscall.RawConn, error) { return c.w.SyscallConn() }
func (c pipeConn) Close() error                          { c.r.Close(); return c.w.Close() }

// TestTrySendBatchNeverWaits: a link's non-blocking send takes a frame
// only if the link takes it at once. Against a peer that does not read it
// reports false with nothing sent — on TCP, with the owed grant the frame
// would have carried owed again — and once the peer drains, it sends,
// in order, every frame it reported sent, the grant riding the first.
func TestTrySendBatchNeverWaits(t *testing.T) {
	for _, fabric := range []string{"chan", "tcp"} {
		t.Run(fabric, func(t *testing.T) {
			a, b := NewPair(4)
			if fabric == "tcp" {
				r, w, err := os.Pipe()
				if err != nil {
					t.Fatal(err)
				}
				a, b = NewTCPLink(pipeConn{w: w}), NewTCPLink(pipeConn{r: r})
			}
			defer a.Close()
			defer b.Close()
			fa, fb := NewFlowLink(a, 64), NewFlowLink(b, 64)
			try := TrySender(fa)
			if try == nil {
				t.Fatal("no non-blocking send")
			}
			frame := func(i int) []*packet.Packet { return []*packet.Packet{mkPkt(10, int64(i)), mkPkt(10, int64(i))} }
			sent := 0
			for ; sent < 100000; sent++ {
				ok, err := try.TrySendBatch(frame(sent))
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
			}
			if sent == 100000 {
				t.Fatal("an unread link took 100000 frames without reporting that it would wait")
			}
			fa.Owe(3)
			if ok, err := try.TrySendBatch(frame(sent)); ok || err != nil {
				t.Fatalf("TrySendBatch on a full link = %v, %v; want false, nil", ok, err)
			}
			if got := fa.Owed(); got != 3 {
				t.Fatalf("%d credits owed after a frame that did not leave, want the 3 owed before", got)
			}

			got := make(chan int64, 2*(sent+1))
			go func() {
				for {
					ps, err := fb.RecvBatch()
					if err != nil {
						return
					}
					for _, p := range ps {
						v, _ := p.Int(0)
						got <- v
					}
				}
			}()
			deadline := time.Now().Add(5 * time.Second)
			for {
				ok, err := try.TrySendBatch(frame(sent))
				if err != nil {
					t.Fatal(err)
				}
				if ok {
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("a drained link never took the frame")
				}
				time.Sleep(time.Millisecond)
			}
			if fabric == "tcp" && fa.Owed() != 0 {
				t.Errorf("%d credits still owed after a frame left: the grant did not ride it", fa.Owed())
			}
			for i := 0; i < 2*(sent+1); i++ {
				select {
				case v := <-got:
					if v != int64(i/2) {
						t.Fatalf("packet %d of the wire carried frame %d", i, v)
					}
				case <-time.After(5 * time.Second):
					t.Fatalf("the peer received %d of %d packets", i, 2*(sent+1))
				}
			}
		})
	}
}
