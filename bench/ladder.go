package main

import (
	"encoding/binary"
	"io"
	"net"
	"runtime"
	"time"

	"repro/internal/filter"
	"repro/internal/packet"
	"repro/internal/topology"
	"repro/internal/transport"
)

// The ladder: every layer's public functions timed alone, on the packet
// shape of the workload under test, in ns and allocations per packet. The
// ledger multiplies the rungs by how often each runs per back-end packet.

// rungDur is about how long one timed repetition of a rung lasts.
var rungDur = 40 * time.Millisecond

const (
	rungReps  = 3  // repetitions per rung; the median is reported
	frameSize = 32 // packets per frame: the shipping batch size
	fanIn     = 8  // children per synchronizer round
)

var sink any

// timeOp times f(iters), growing iters until one call lasts rungDur, and
// returns the median time and allocations per item over rungReps calls;
// every iteration of f handles unit items.
func timeOp(unit int, f func(iters int)) (nsPerItem, allocsPerItem float64) {
	iters := 1
	for {
		t := time.Now()
		f(iters)
		d := time.Since(t)
		if d >= rungDur/2 || iters >= 1<<26 {
			break
		}
		if d < rungDur/64 {
			iters *= 16
		} else {
			iters *= 2
		}
	}
	var ns, allocs []float64
	var m0, m1 runtime.MemStats
	for i := 0; i < rungReps; i++ {
		runtime.ReadMemStats(&m0)
		t := time.Now()
		f(iters)
		d := time.Since(t)
		runtime.ReadMemStats(&m1)
		items := float64(iters * unit)
		ns = append(ns, float64(d)/items)
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs)/items)
	}
	return median(ns), median(allocs)
}

// newShaped builds one packet of the workload's shape the way
// BackEnd.Send does: through the variadic constructor.
func newShaped(w *workload, in *inputs, i int64) *packet.Packet {
	if w.kind == passthruSat {
		return packet.MustNew(dataTag, 1, 9, "%d %ac", passValue(0, i), in.payload[0])
	}
	return packet.MustNew(dataTag, 1, 9, "%d", in.base[0]+i)
}

// encodedFrame returns frameSize packets of the shape with their
// encodings cached and held, as the egress queue holds them.
func encodedFrame(w *workload, in *inputs) []*packet.Packet {
	ps := make([]*packet.Packet, frameSize)
	for i := range ps {
		ps[i] = newShaped(w, in, int64(i))
		ps[i].RetainEncoded(1)
		ps[i].EncodedBytes()
	}
	return ps
}

func loopback() (a, b net.Conn, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	defer ln.Close()
	type accepted struct {
		c   net.Conn
		err error
	}
	ch := make(chan accepted, 1)
	go func() {
		c, err := ln.Accept()
		ch <- accepted{c, err}
	}()
	a, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return nil, nil, err
	}
	acc := <-ch
	if acc.err != nil {
		a.Close()
		return nil, nil, acc.err
	}
	return a, acc.c, nil
}

// ladder measures every rung for w's packet shape.
func ladder(w *workload, seed int64) (map[string]float64, error) {
	m := map[string]float64{}
	in := newInputs(seed, 1)
	// A rung that fails keeps looping and reports its first error at the end.
	var failed error
	check := func(err error) {
		if err != nil && failed == nil {
			failed = err
		}
	}

	// packet
	m["packet.new_ns"], m["packet.new_allocs"] = timeOp(1, func(n int) {
		for i := 0; i < n; i++ {
			sink = newShaped(w, in, int64(i))
		}
	})
	p := newShaped(w, in, 0)
	m["packet.wire_bytes"] = float64(p.EncodedSize())
	// The hot path's encode: into an arena body, returned on release.
	m["packet.encode_ns"], _ = timeOp(1, func(n int) {
		for i := 0; i < n; i++ {
			p.RetainEncoded(1)
			sink = p.EncodedBytes()
			p.ReleaseEncoded()
		}
	})
	wire := p.Encode()
	m["packet.decode_ns"], m["packet.decode_allocs"] = timeOp(1, func(n int) {
		for i := 0; i < n; i++ {
			q, err := packet.Decode(wire)
			check(err)
			sink = q
		}
	})
	frame := encodedFrame(w, in)
	scratch := make([]byte, 0, packet.EncodedFrameSize(frame))
	m["packet.frame_append_ns"], _ = timeOp(frameSize, func(n int) {
		for i := 0; i < n; i++ {
			scratch = packet.AppendFrame(scratch[:0], frame)
		}
	})
	body := packet.EncodeFrame(frame)
	m["packet.frame_decode_ns"], _ = timeOp(frameSize, func(n int) {
		for i := 0; i < n; i++ {
			ps, err := packet.DecodeFrame(body)
			check(err)
			sink = ps
		}
	})

	// transport
	if err := ladderTCP(m, frame, body, check); err != nil {
		return nil, err
	}
	ca, cb := transport.NewPair(64)
	go func() {
		for {
			if _, err := transport.RecvBatch(cb); err != nil {
				return
			}
		}
	}()
	// The receiver above only discards, so the ladder may reuse the slice
	// a real sender would have to give up.
	m["transport.chan_send_ns"], _ = timeOp(frameSize, func(n int) {
		for i := 0; i < n; i++ {
			check(transport.SendBatch(ca, frame))
		}
	})
	ca.Close()
	cb.Close()

	// One credit's life: acquired by the sender, retired by the receiver,
	// granted back a quarter window at a time, refilled.
	fa, fb := transport.NewPair(1)
	fl := transport.NewFlowLink(fa, 64)
	m["transport.flow_credit_ns"], _ = timeOp(1, func(n int) {
		for i := 0; i < n; i++ {
			fl.Acquire(nil, nil)
			if g := fl.Retire(1); g > 0 {
				c, _ := packet.CreditGrantValue(fl.GrantPacket(g))
				fl.Refill(int(c))
			}
		}
	})
	fl.Close()
	fb.Close()

	// filter: reductions are over "%d" whatever the workload's shape.
	ints := make([]*packet.Packet, frameSize)
	for i := range ints {
		ints[i] = packet.MustNew(dataTag, 1, 9, "%d", int64(i))
	}
	wfa := filter.NewWaitForAll(fanIn)
	m["filter.waitforall_ns"], _ = timeOp(fanIn*frameSize, func(n int) {
		for i := 0; i < n; i++ {
			for c := 0; c < fanIn; c++ {
				sink = wfa.AddBatch(c, ints)
			}
		}
	})
	sum := filter.NewNumericReduce(filter.OpSum)
	m["filter.sum_ns"], m["filter.sum_allocs"] = timeOp(fanIn, func(n int) {
		for i := 0; i < n; i++ {
			out, err := sum.Transform(ints[:fanIn])
			check(err)
			sink = out
		}
	})
	ns := filter.NewNullSync()
	m["filter.nullsync_ns"], _ = timeOp(frameSize, func(n int) {
		for i := 0; i < n; i++ {
			sink = ns.AddBatch(0, frame)
		}
	})

	us, _ := timeOp(1, func(n int) {
		for i := 0; i < n; i++ {
			t, err := topology.ParseSpec(w.topo)
			check(err)
			sink = t
		}
	})
	m["topology.parse_us"] = us / 1000
	return m, failed
}

// ladderTCP times the TCP link against raw peers on host loopback, so
// that each side is measured without the other's codec: the sender
// against a reader that discards bytes, the receiver against a writer
// that repeats one prebuilt frame.
func ladderTCP(m map[string]float64, frame []*packet.Packet, body []byte, check func(error)) error {
	c1, c2, err := loopback()
	if err != nil {
		return err
	}
	go io.Copy(io.Discard, c2) //nolint:errcheck // ends when c2 closes
	tx := transport.NewTCPLink(c1)
	var sendAllocs, recvAllocs float64
	m["transport.tcp_send_ns"], sendAllocs = timeOp(frameSize, func(n int) {
		for i := 0; i < n; i++ {
			check(transport.SendBatch(tx, frame))
		}
	})
	tx.Close()
	c2.Close()

	c1, c2, err = loopback()
	if err != nil {
		return err
	}
	one := binary.LittleEndian.AppendUint32(nil, uint32(len(body)))
	one = append(one, body...)
	var many []byte
	for len(many) < 256<<10 {
		many = append(many, one...)
	}
	go func() {
		for {
			if _, err := c2.Write(many); err != nil {
				return
			}
		}
	}()
	rx := transport.NewTCPLink(c1)
	m["transport.tcp_recv_ns"], recvAllocs = timeOp(frameSize, func(n int) {
		for i := 0; i < n; i++ {
			ps, err := transport.RecvBatch(rx)
			check(err)
			sink = ps
		}
	})
	rx.Close()
	c2.Close()
	m["transport.tcp_allocs"] = sendAllocs + recvAllocs

	c1, c2, err = loopback()
	if err != nil {
		return err
	}
	a, b := transport.NewTCPLink(c1), transport.NewTCPLink(c2)
	go func() {
		for {
			p, err := b.Recv()
			if err != nil {
				return
			}
			if b.Send(p) != nil {
				return
			}
		}
	}()
	ns, _ := timeOp(1, func(n int) {
		for i := 0; i < n; i++ {
			check(a.Send(frame[0]))
			_, err := a.Recv()
			check(err)
		}
	})
	m["transport.tcp_rtt_us"] = ns / 1000
	a.Close()
	b.Close()
	return nil
}
