package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"syscall"

	"repro/internal/packet"
	"repro/internal/topology"
)

// tcpLink adapts a net.Conn to the Link interface using the packet wire
// format with multi-packet frames: every Send or SendBatch assembles one
// length-prefixed frame in the link's persistent scratch buffer and hands
// it to the socket as a single write, so a batched flush pays one syscall
// and zero intermediate copies (no per-frame body allocation, no bufio
// staging). packet.AppendFrame fills the scratch: a packet this process
// built is copied from its encode-once cache; one it received and is
// passing on is framed from its header fields and the payload bytes it
// arrived as, so a forwarding hop serializes nothing.
//
// Inbound frames are read into a fresh allocation each (packet.ReadFrame):
// the body, the decoded Packets and the batch slice, one object for a small
// one-packet frame. It is never reused, so a received packet may be
// retained, restamped and re-sent freely; while it lives it keeps the frame
// body, its siblings' headers and any values they have materialized alive.
//
// Credit grants, the hottest control traffic, take neither path: the
// wrapping FlowLink sends one as a fixed-size frame written from its fields
// (writeGrant) — or, when the grant is owed, every data frame puts it ahead
// of its packets in the same write (carry) — and the reader hands a
// grant-only frame to that FlowLink straight out of the read buffer
// (absorbGrant): no Packet, slice or frame buffer on either side.
type tcpLink struct {
	conn net.Conn

	sendMu sync.Mutex
	// scratch is the reusable frame-assembly buffer, owned by sendMu. It
	// is retained across frames up to maxFrameScratch so the steady-state
	// send path allocates nothing; oversize frames fall back to a
	// one-shot buffer the GC reclaims.
	scratch []byte
	// carry, when set (by the wrapping FlowLink, under sendMu), claims the
	// grant owed to the peer for each data frame written; n == 0 is none.
	// settle closes the claim: sent once the frame left with it, or not,
	// giving it back, when the socket took none of the frame.
	carry  func() (n uint32, acked uint64)
	settle func(n uint32, sent bool)
	// raw is the socket's descriptor, nil when conn is not a socket, for
	// TrySendBatch's one non-blocking write: tryWrite, built once, writes
	// tryBuf and leaves its result in tryN and tryErr (all under sendMu).
	raw      syscall.RawConn
	tryWrite func(fd uintptr) bool
	tryBuf   []byte
	tryN     int
	tryErr   error

	recvMu  sync.Mutex
	r       *bufio.Reader
	pending []*packet.Packet // partially consumed inbound frame
	pendOff int
	// grants, when set (by the wrapping FlowLink, under recvMu), receives
	// every grant-only inbound frame instead of the frame being decoded.
	grants func(n int, acked uint64)

	closeOnce sync.Once
	closeErr  error
}

// maxFrameScratch bounds the frame-assembly scratch a link keeps between
// flushes; it comfortably covers the egress flusher's frame-split bound.
const maxFrameScratch = 128 << 10

// NewTCPLink wraps an established connection as a Link. The caller
// relinquishes ownership of conn.
func NewTCPLink(conn net.Conn) Link {
	l := &tcpLink{
		conn: conn,
		r:    bufio.NewReaderSize(conn, 64<<10),
	}
	if sc, ok := conn.(syscall.Conn); ok {
		if raw, err := sc.SyscallConn(); err == nil {
			l.raw = raw
			l.tryWrite = func(fd uintptr) bool {
				for {
					n, err := syscall.Write(int(fd), l.tryBuf)
					if err != syscall.EINTR {
						l.tryN, l.tryErr = max(n, 0), err
						return true // never wait for the socket
					}
				}
			}
		}
	}
	return l
}

func (l *tcpLink) Send(p *packet.Packet) error {
	return l.writeFrame([]*packet.Packet{p})
}

// SendBatch writes the whole batch as one frame with a single flush.
func (l *tcpLink) SendBatch(ps []*packet.Packet) error {
	if len(ps) == 0 {
		return nil
	}
	return l.writeFrame(ps)
}

// writeFrame assembles header + body in the persistent scratch, behind
// the owed grant if there is one, and writes both frames with one
// conn.Write. appendWireFrame recycles the scratch, so a steady-state
// flush performs no allocation between the packets and the socket.
func (l *tcpLink) writeFrame(ps []*packet.Packet) error {
	l.sendMu.Lock()
	defer l.sendMu.Unlock()
	buf, grant := l.assemble(ps)
	if _, err := l.conn.Write(buf); err != nil {
		return l.mapErr(err)
	}
	if grant > 0 {
		l.settle(grant, true)
	}
	return nil
}

// TrySendBatch is SendBatch if the send lock is free and the socket takes
// the frame's first bytes at once; a frame the socket took only part of is
// finished before it returns, since a started frame cannot be withdrawn.
// Otherwise it reports false: nothing was written, and the owed grant the
// frame would have carried is owed again.
func (l *tcpLink) TrySendBatch(ps []*packet.Packet) (bool, error) {
	if len(ps) == 0 {
		return true, nil
	}
	if l.raw == nil || !l.sendMu.TryLock() {
		return false, nil
	}
	defer l.sendMu.Unlock()
	buf, grant := l.assemble(ps)
	l.tryBuf, l.tryN, l.tryErr = buf, 0, nil
	err := l.raw.Write(l.tryWrite)
	l.tryBuf = nil
	n := l.tryN
	if err == nil && l.tryErr != syscall.EAGAIN {
		err = l.tryErr
	}
	if err == nil && n == 0 {
		if grant > 0 {
			l.settle(grant, false)
		}
		return false, nil
	}
	if err == nil && n < len(buf) {
		_, err = l.conn.Write(buf[n:])
	}
	if err != nil {
		return false, l.mapErr(err)
	}
	if grant > 0 {
		l.settle(grant, true)
	}
	return true, nil
}

// assemble builds the frame for ps in the persistent scratch, behind the
// owed grant it claims (grant, 0 when none was owed). Callers hold sendMu.
func (l *tcpLink) assemble(ps []*packet.Packet) (buf []byte, grant uint32) {
	buf = l.scratch[:0]
	if l.carry != nil {
		var acked uint64
		if grant, acked = l.carry(); grant > 0 {
			buf = packet.AppendGrantFrame(buf, grant, acked)
		}
	}
	buf, l.scratch = appendWireFrame(buf, l.scratch, ps)
	return buf, grant
}

// appendWireFrame appends a complete wire frame (uint32 body-length prefix
// plus body) for ps to buf, which is empty or holds a grant frame at the
// start of scratch, growing it as needed, and returns the bytes to write
// alongside the scratch to retain for the next call — the grown buffer
// when it stayed within maxFrameScratch, the old one otherwise.
func appendWireFrame(buf, scratch []byte, ps []*packet.Packet) (frame, keep []byte) {
	body := packet.EncodedFrameSize(ps)
	if cap(buf)-len(buf) < 4+body {
		buf = append(make([]byte, 0, len(buf)+4+body), buf...)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(body))
	buf = packet.AppendFrame(buf, ps)
	if cap(buf) <= maxFrameScratch {
		return buf, buf
	}
	return buf, scratch
}

// writeGrant writes one grant-only frame, assembled from the grant's fields
// in the persistent scratch.
func (l *tcpLink) writeGrant(n uint32, acked uint64) error {
	l.sendMu.Lock()
	defer l.sendMu.Unlock()
	l.scratch = packet.AppendGrantFrame(l.scratch[:0], n, acked)
	if _, err := l.conn.Write(l.scratch); err != nil {
		return l.mapErr(err)
	}
	return nil
}

func (l *tcpLink) absorbGrants(fn func(n int, acked uint64)) {
	l.recvMu.Lock()
	l.grants = fn
	l.recvMu.Unlock()
}

func (l *tcpLink) carryGrants(claim func() (n uint32, acked uint64), settle func(n uint32, sent bool)) {
	l.sendMu.Lock()
	l.carry, l.settle = claim, settle
	l.sendMu.Unlock()
}

// absorbGrant consumes the next inbound frame if it is a lone credit grant,
// handing it to the grant sink; callers hold recvMu. Every frame that
// carries a packet is at least GrantFrameSize bytes, so the peek waits for
// no more than the next frame's own bytes. The link ending at a frame
// boundary is reported here; ending mid-frame is left to ReadFrame.
func (l *tcpLink) absorbGrant() (bool, error) {
	b, err := l.r.Peek(packet.GrantFrameSize)
	if len(b) == 0 && err != nil {
		return false, err
	}
	n, acked, ok := packet.ParseGrantFrame(b)
	if !ok {
		return false, nil
	}
	_, _ = l.r.Discard(packet.GrantFrameSize) // the peek buffered these bytes: Discard cannot fail
	l.grants(int(n), acked)
	return true, nil
}

// BatchCopies reports true: the batch's bytes are on the socket (or in
// the kernel buffer) before SendBatch returns, and neither the slice nor
// the encoded bodies are retained by the link.
func (l *tcpLink) BatchCopies() bool { return true }

func (l *tcpLink) Recv() (*packet.Packet, error) {
	l.recvMu.Lock()
	defer l.recvMu.Unlock()
	if l.pendOff < len(l.pending) {
		p := l.pending[l.pendOff]
		l.pendOff++
		if l.pendOff == len(l.pending) {
			l.pending, l.pendOff = nil, 0
		}
		return p, nil
	}
	ps, err := l.readFrame()
	if err != nil {
		return nil, err
	}
	p := ps[0]
	if len(ps) > 1 {
		l.pending, l.pendOff = ps, 1
	}
	return p, nil
}

// RecvBatch returns the next inbound frame's packets as one batch.
func (l *tcpLink) RecvBatch() ([]*packet.Packet, error) {
	l.recvMu.Lock()
	defer l.recvMu.Unlock()
	if l.pendOff < len(l.pending) {
		ps := l.pending[l.pendOff:]
		l.pending, l.pendOff = nil, 0
		return ps, nil
	}
	return l.readFrame()
}

// readFrame reads frames until one carries at least one packet; callers
// hold recvMu.
func (l *tcpLink) readFrame() ([]*packet.Packet, error) {
	for {
		if l.grants != nil {
			absorbed, err := l.absorbGrant()
			if err != nil {
				return nil, recvErr(err)
			}
			if absorbed {
				continue
			}
		}
		ps, err := packet.ReadFrame(l.r)
		if err != nil {
			return nil, recvErr(err)
		}
		if len(ps) > 0 {
			return ps, nil
		}
	}
}

// recvErr maps the end of the connection, however it shows, to io.EOF.
func recvErr(err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || isClosedConn(err) {
		return io.EOF
	}
	return err
}

func (l *tcpLink) Close() error {
	l.closeOnce.Do(func() { l.closeErr = l.conn.Close() })
	return l.closeErr
}

// Drop severs the connection abruptly: SO_LINGER 0 makes the close discard
// unsent data and send a RST, so the peer sees a crash, not a clean FIN.
func (l *tcpLink) Drop() {
	if tc, ok := l.conn.(*net.TCPConn); ok {
		_ = tc.SetLinger(0)
	}
	_ = l.Close()
}

func (l *tcpLink) mapErr(err error) error {
	if errors.Is(err, net.ErrClosed) || isClosedConn(err) {
		return ErrClosed
	}
	return err
}

func isClosedConn(err error) bool {
	if errors.Is(err, net.ErrClosed) {
		return true
	}
	var opErr *net.OpError
	return errors.As(err, &opErr)
}

// Dial establishes a TCP link to addr.
func Dial(addr string) (Link, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewTCPLink(conn), nil
}

// Listener accepts TCP links.
type Listener struct {
	l net.Listener
}

// Listen opens a TCP listener on addr (use "127.0.0.1:0" for an ephemeral
// local port).
func Listen(addr string) (*Listener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Listener{l: l}, nil
}

// Addr returns the listener's bound address.
func (ln *Listener) Addr() string { return ln.l.Addr().String() }

// Accept waits for the next inbound link.
func (ln *Listener) Accept() (Link, error) {
	conn, err := ln.l.Accept()
	if err != nil {
		return nil, err
	}
	return NewTCPLink(conn), nil
}

// Close stops the listener.
func (ln *Listener) Close() error { return ln.l.Close() }

// NewTCPFabric wires an entire topology with real TCP links over loopback,
// returning one Endpoint per rank. This is the integration-test and
// single-machine-deployment path; a distributed deployment would instead
// have each process Dial its parent using the topology's Host fields.
func NewTCPFabric(t *topology.Tree) ([]*Endpoint, error) {
	eps := make([]*Endpoint, t.Len())
	for r := 0; r < t.Len(); r++ {
		eps[r] = &Endpoint{Rank: packet.Rank(r)}
	}
	var openLinks []Link
	fail := func(err error) ([]*Endpoint, error) {
		for _, l := range openLinks {
			l.Close()
		}
		return nil, err
	}
	for r := 0; r < t.Len(); r++ {
		for _, c := range t.Children(topology.Rank(r)) {
			ln, err := Listen("127.0.0.1:0")
			if err != nil {
				return fail(fmt.Errorf("transport: listen for edge %d->%d: %w", r, c, err))
			}
			type accepted struct {
				link Link
				err  error
			}
			acceptCh := make(chan accepted, 1)
			go func() {
				l, err := ln.Accept()
				acceptCh <- accepted{l, err}
			}()
			childEnd, err := Dial(ln.Addr())
			if err != nil {
				ln.Close()
				return fail(fmt.Errorf("transport: dial for edge %d->%d: %w", r, c, err))
			}
			acc := <-acceptCh
			ln.Close()
			if acc.err != nil {
				childEnd.Close()
				return fail(fmt.Errorf("transport: accept for edge %d->%d: %w", r, c, acc.err))
			}
			eps[r].Children = append(eps[r].Children, acc.link)
			eps[c].Parent = childEnd
			openLinks = append(openLinks, acc.link, childEnd)
		}
	}
	return eps, nil
}
