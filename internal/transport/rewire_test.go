package transport

import (
	"errors"
	"io"
	"testing"
	"time"

	"repro/internal/packet"
)

// rewirers returns both fabric implementations for table-driven tests.
func rewirers() map[string]Rewirer {
	return map[string]Rewirer{
		"chan": NewChanRewirer(),
		"tcp":  &TCPRewirer{},
	}
}

// TestRewirerOfferRedial exercises the replacement-link protocol on both
// fabrics: offer, redial, accept, then traffic in both directions.
func TestRewirerOfferRedial(t *testing.T) {
	for name, rw := range rewirers() {
		t.Run(name, func(t *testing.T) {
			off, err := rw.Offer()
			if err != nil {
				t.Fatal(err)
			}
			if off.Addr() == "" {
				t.Fatal("offer has no address")
			}
			// Redial strictly before Accept: the rendezvous must hold the
			// connection (TCP backlog semantics).
			child, err := rw.Redial(off.Addr())
			if err != nil {
				t.Fatal(err)
			}
			parent, err := off.Accept()
			if err != nil {
				t.Fatal(err)
			}
			defer parent.Close()
			defer child.Close()

			up := packet.MustNew(10, 1, 2, "%d", int64(42))
			if err := child.Send(up); err != nil {
				t.Fatal(err)
			}
			got, err := parent.Recv()
			if err != nil {
				t.Fatal(err)
			}
			if v, _ := got.Int(0); v != 42 {
				t.Errorf("upstream payload = %d, want 42", v)
			}
			down := packet.MustNew(11, 1, 0, "%s", "hello")
			if err := parent.Send(down); err != nil {
				t.Fatal(err)
			}
			got, err = child.Recv()
			if err != nil {
				t.Fatal(err)
			}
			if s, _ := got.Str(0); s != "hello" {
				t.Errorf("downstream payload = %q, want hello", s)
			}
		})
	}
}

// TestRewirerRedialUnknownAddr: redialing a rendezvous that never existed
// fails with ErrNoOffer on both fabrics.
func TestRewirerRedialUnknownAddr(t *testing.T) {
	for name, rw := range rewirers() {
		t.Run(name, func(t *testing.T) {
			addr := "chan:9999"
			if name == "tcp" {
				addr = "127.0.0.1:1" // nothing listens on port 1
			}
			if _, err := rw.Redial(addr); !errors.Is(err, ErrNoOffer) {
				t.Errorf("redial %s: err = %v, want ErrNoOffer", addr, err)
			}
		})
	}
}

// TestRewirerDoubleRedial: an offer mints exactly one link; a second
// redial of the same address fails.
func TestRewirerDoubleRedial(t *testing.T) {
	for name, rw := range rewirers() {
		t.Run(name, func(t *testing.T) {
			off, err := rw.Offer()
			if err != nil {
				t.Fatal(err)
			}
			child, err := rw.Redial(off.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer child.Close()
			parent, err := off.Accept()
			if err != nil {
				t.Fatal(err)
			}
			defer parent.Close()
			if second, err := rw.Redial(off.Addr()); err == nil {
				// TCP may connect before observing the closed listener's
				// reset; a usable link is the failure, not the connect.
				if serr := second.Send(packet.MustNew(1, 0, 0, "")); serr == nil {
					if _, rerr := parent.Recv(); rerr == nil {
						t.Error("second redial produced a live second link")
					}
				}
				second.Close()
			}
		})
	}
}

// TestRewirerCloseUnblocksAccept: closing an offer fails a blocked Accept
// instead of leaving it waiting forever (a dead orphan must not wedge the
// adopter).
func TestRewirerCloseUnblocksAccept(t *testing.T) {
	for name, rw := range rewirers() {
		t.Run(name, func(t *testing.T) {
			off, err := rw.Offer()
			if err != nil {
				t.Fatal(err)
			}
			type res struct {
				l   Link
				err error
			}
			ch := make(chan res, 1)
			go func() {
				l, err := off.Accept()
				ch <- res{l, err}
			}()
			time.Sleep(10 * time.Millisecond)
			if err := off.Close(); err != nil {
				t.Fatal(err)
			}
			select {
			case r := <-ch:
				if r.err == nil {
					t.Error("Accept succeeded after Close")
					r.l.Close()
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Accept still blocked after Close")
			}
		})
	}
}

// TestChanRewirerCloseSeversDepositedEnd: when a redial lands but the
// adopter abandons the offer, the orphan's end must observe EOF rather
// than strand on a link nobody will ever read.
func TestChanRewirerCloseSeversDepositedEnd(t *testing.T) {
	rw := NewChanRewirer()
	off, err := rw.Offer()
	if err != nil {
		t.Fatal(err)
	}
	child, err := rw.Redial(off.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := off.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := child.Recv(); !errors.Is(err, io.EOF) {
		t.Errorf("orphan end Recv = %v, want io.EOF", err)
	}
}
