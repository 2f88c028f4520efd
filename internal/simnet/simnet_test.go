package simnet

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/packet"
	"repro/internal/topology"
	"repro/internal/transport"
)

func TestTransferTime(t *testing.T) {
	m := Model{Latency: time.Millisecond, Bandwidth: 1000} // 1000 B/s
	if got := m.TransferTime(0); got != time.Millisecond {
		t.Errorf("TransferTime(0) = %v, want 1ms", got)
	}
	// 500 bytes at 1000 B/s = 500ms + 1ms latency.
	if got := m.TransferTime(500); got != 501*time.Millisecond {
		t.Errorf("TransferTime(500) = %v, want 501ms", got)
	}
	// Infinite bandwidth.
	m2 := Model{Latency: time.Microsecond}
	if got := m2.TransferTime(1 << 30); got != time.Microsecond {
		t.Errorf("infinite bandwidth: %v", got)
	}
}

func TestGigEIsPlausible(t *testing.T) {
	// A 1 MB transfer on GigE should take ~8ms plus latency.
	d := GigE.TransferTime(1 << 20)
	if d < 8*time.Millisecond || d > 10*time.Millisecond {
		t.Errorf("GigE 1MB transfer = %v, want ~8.4ms", d)
	}
}

func TestClockConcurrent(t *testing.T) {
	var c Clock
	done := make(chan struct{})
	for i := 0; i < 8; i++ {
		go func() {
			for j := 0; j < 1000; j++ {
				c.Advance(time.Microsecond)
			}
			done <- struct{}{}
		}()
	}
	for i := 0; i < 8; i++ {
		<-done
	}
	if got := c.Elapsed(); got != 8*time.Millisecond {
		t.Errorf("Elapsed = %v, want 8ms", got)
	}
	c.Reset()
	if c.Elapsed() != 0 {
		t.Error("Reset did not zero the clock")
	}
}

func TestWrapAccountsTransfers(t *testing.T) {
	tr, _ := topology.Flat(2)
	eps := transport.NewChanFabric(tr)
	var clock Clock
	m := Model{Latency: time.Millisecond} // no bandwidth term
	Wrap(eps, m, &clock, 0)

	p := packet.MustNew(100, 1, 1, "%d", int64(5))
	if err := eps[1].Parent.Send(p); err != nil {
		t.Fatal(err)
	}
	if _, err := eps[0].Children[0].Recv(); err != nil {
		t.Fatal(err)
	}
	if got := clock.Elapsed(); got != time.Millisecond {
		t.Errorf("clock = %v, want 1ms", got)
	}
	// Downstream send accounts too.
	if err := eps[0].Children[1].Send(p); err != nil {
		t.Fatal(err)
	}
	if got := clock.Elapsed(); got != 2*time.Millisecond {
		t.Errorf("clock = %v, want 2ms", got)
	}
}

func TestWrapInjectionDelays(t *testing.T) {
	tr, _ := topology.Flat(1)
	eps := transport.NewChanFabric(tr)
	m := Model{Latency: 20 * time.Millisecond}
	Wrap(eps, m, nil, 1.0)
	start := time.Now()
	if err := eps[1].Parent.Send(packet.MustNew(100, 1, 1, "%d", int64(1))); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 15*time.Millisecond {
		t.Errorf("injected delay too small: %v", elapsed)
	}
}

// Property: transfer time is monotone in message size and never below latency.
func TestQuickTransferMonotone(t *testing.T) {
	f := func(a, b uint16) bool {
		m := Model{Latency: time.Millisecond, Bandwidth: 1e6}
		x, y := int(a), int(b)
		if x > y {
			x, y = y, x
		}
		tx, ty := m.TransferTime(x), m.TransferTime(y)
		return tx >= m.Latency && tx <= ty
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
