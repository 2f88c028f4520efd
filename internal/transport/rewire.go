package transport

import (
	"errors"
	"fmt"
	"sync"
)

// ErrNoOffer is returned by Redial for a rendezvous that does not exist,
// was already claimed, or was closed.
var ErrNoOffer = errors.New("transport: no such offer")

// Rewirer mints replacement links on a live fabric, the plumbing under
// live topology mutation (recovery reparenting, dynamic attach). The
// protocol mirrors a distributed deployment even when both halves run in
// one process: the adopting parent opens an Offer (a listen, on TCP), the
// orphan Redials the offer's address, and each side then holds its end of
// a brand-new Link. Redial never requires Accept to be in progress — on
// TCP the listen backlog holds the connection, and the chan implementation
// mirrors that — so the two halves may run strictly sequentially.
//
// Implementations are safe for concurrent use by multiple goroutines.
type Rewirer interface {
	// Offer opens a rendezvous for exactly one replacement link.
	Offer() (Offer, error)
	// Redial connects to a rendezvous opened by Offer (possibly in another
	// process, on TCP) and returns the orphan-side end of the new link.
	Redial(addr string) (Link, error)
}

// Offer is one open rendezvous: Addr is what the orphan passes to Redial,
// Accept blocks until the orphan has redialed and returns the parent-side
// end, and Close abandons the rendezvous (failing a blocked Accept).
type Offer interface {
	Addr() string
	Accept() (Link, error)
	Close() error
}

// ChanRewirer mints in-process replacement links. Offers register in a
// per-rewirer table under synthetic "chan:N" addresses; Redial builds a
// fresh channel pair, leaves the parent end at the rendezvous for Accept
// to claim, and hands back the child end immediately.
type ChanRewirer struct {
	mu     sync.Mutex
	next   int
	offers map[string]*chanOffer
}

// NewChanRewirer creates a rewirer whose links buffer DefaultChanBuffer
// frames per direction.
func NewChanRewirer() *ChanRewirer {
	return &ChanRewirer{offers: map[string]*chanOffer{}}
}

type chanOffer struct {
	rw   *ChanRewirer
	addr string

	parentEnd chan Link // buffered 1: Redial deposits, Accept claims
	closed    chan struct{}
	closeOnce sync.Once
}

func (rw *ChanRewirer) Offer() (Offer, error) {
	rw.mu.Lock()
	defer rw.mu.Unlock()
	o := &chanOffer{
		rw:        rw,
		addr:      fmt.Sprintf("chan:%d", rw.next),
		parentEnd: make(chan Link, 1),
		closed:    make(chan struct{}),
	}
	rw.next++
	rw.offers[o.addr] = o
	return o, nil
}

func (rw *ChanRewirer) Redial(addr string) (Link, error) {
	rw.mu.Lock()
	defer rw.mu.Unlock()
	o := rw.offers[addr]
	if o == nil {
		return nil, fmt.Errorf("%w: %s", ErrNoOffer, addr)
	}
	// One offer, one redial: claiming deregisters the rendezvous so a
	// second redial fails like a TCP listener that already closed. The
	// deposit stays inside the critical section: Close deregisters under
	// the same lock before draining, so a racing Close either beats this
	// redial entirely (lookup fails above) or observes the deposited end
	// in its drain and severs it — the parent end can never strand.
	delete(rw.offers, addr)
	parent, child := NewPair(DefaultChanBuffer)
	o.parentEnd <- parent // buffered 1, sole depositor: never blocks
	return child, nil
}

func (o *chanOffer) Addr() string { return o.addr }

func (o *chanOffer) Accept() (Link, error) {
	select {
	case l := <-o.parentEnd:
		return l, nil
	case <-o.closed:
		// A redial may have raced the close; prefer delivering it.
		select {
		case l := <-o.parentEnd:
			return l, nil
		default:
			return nil, fmt.Errorf("%w: %s closed", ErrNoOffer, o.addr)
		}
	}
}

func (o *chanOffer) Close() error {
	o.closeOnce.Do(func() {
		o.rw.mu.Lock()
		delete(o.rw.offers, o.addr)
		o.rw.mu.Unlock()
		close(o.closed)
		// Sever a deposited-but-unclaimed parent end so the redialed
		// orphan observes EOF instead of waiting on an abandoned link.
		select {
		case l := <-o.parentEnd:
			DropLink(l)
		default:
		}
	})
	return nil
}

// TCPRewirer mints replacement links over real TCP: Offer opens a
// one-shot listener, Redial dials it. The zero value listens on an
// ephemeral loopback port, the single-machine deployment; a distributed
// deployment sets ListenAddr to an externally reachable address.
type TCPRewirer struct {
	// ListenAddr is the address offers listen on; empty means
	// "127.0.0.1:0".
	ListenAddr string
}

func (rw *TCPRewirer) Offer() (Offer, error) {
	addr := rw.ListenAddr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := Listen(addr)
	if err != nil {
		return nil, fmt.Errorf("transport: rewire listen: %w", err)
	}
	return &tcpOffer{ln: ln}, nil
}

func (rw *TCPRewirer) Redial(addr string) (Link, error) {
	l, err := Dial(addr)
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrNoOffer, addr, err)
	}
	return l, nil
}

type tcpOffer struct {
	ln        *Listener
	closeOnce sync.Once
}

func (o *tcpOffer) Addr() string { return o.ln.Addr() }

func (o *tcpOffer) Accept() (Link, error) {
	l, err := o.ln.Accept()
	// One offer, one link: the rendezvous closes after the first accept.
	_ = o.Close()
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrNoOffer, o.ln.Addr(), err)
	}
	return l, nil
}

func (o *tcpOffer) Close() error {
	o.closeOnce.Do(func() { _ = o.ln.Close() })
	return nil
}
