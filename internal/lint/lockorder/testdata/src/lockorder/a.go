// Fixture for the lockorder analyzer: order inversions (direct and through
// a callee's acquisition summary) and blocking operations under the
// egressQueue bookkeeping mutex.
package lockorder

import "sync"

type FlowLink struct{}

func (f *FlowLink) Send(p int) error { return nil }
func (f *FlowLink) Refund(n int)     {}
func (f *FlowLink) Acquire(a, b <-chan struct{}) bool {
	return true
}

// --- order inversion, direct ---

type queue struct {
	mu      sync.Mutex
	flushMu sync.Mutex
	buf     []int
}

// flushGood follows the repo convention: flushMu first, then mu.
func (q *queue) flushGood() {
	q.flushMu.Lock()
	defer q.flushMu.Unlock()
	q.mu.Lock() // want `lock order inversion`
	q.buf = nil
	q.mu.Unlock()
}

// addBad takes the opposite order; together with flushGood this is a
// potential deadlock, so BOTH acquisition sites are reported.
func (q *queue) addBad() {
	q.mu.Lock()
	q.flushMu.Lock() // want `lock order inversion`
	q.flushMu.Unlock()
	q.mu.Unlock()
}

// --- order inversion, via a callee's summary ---

type shard struct {
	pipeMu  sync.Mutex
	stateMu sync.Mutex
	n       int
}

func (s *shard) takeState() {
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	s.n++
}

// pollGood acquires stateMu through takeState while holding pipeMu.
func (s *shard) pollGood() {
	s.pipeMu.Lock()
	defer s.pipeMu.Unlock()
	s.takeState() // want `lock order inversion`
}

// invBad closes the cycle in the other direction.
func (s *shard) invBad() {
	s.stateMu.Lock()
	s.pipeMu.Lock() // want `lock order inversion`
	s.pipeMu.Unlock()
	s.stateMu.Unlock()
}

// --- blocking under the queue mutex ---

type egressQueue struct {
	mu   sync.Mutex
	ch   chan int
	buf  []int
	link *FlowLink
}

// badChanSend blocks on a channel while holding the bookkeeping mutex.
func (q *egressQueue) badChanSend() {
	q.mu.Lock()
	q.ch <- 1 // want `channel send while holding egressQueue.mu`
	q.mu.Unlock()
}

// badLinkSend holds mu across a wire send.
func (q *egressQueue) badLinkSend(p int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	_ = q.link.Send(p) // want `Send may block while holding egressQueue.mu`
}

// badAcquire holds mu across a credit acquisition.
func (q *egressQueue) badAcquire(stop <-chan struct{}) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.link.Acquire(stop, nil) { // want `Acquire may block while holding egressQueue.mu`
		q.buf = append(q.buf, 0)
	}
}

// flushLocked runs under the caller's mu by the *Locked convention, so the
// send inside it is just as illegal.
func (q *egressQueue) flushLocked(p int) {
	_ = q.link.Send(p) // want `Send may block while holding egressQueue.mu`
}

// goodSend releases mu before touching the wire.
func (q *egressQueue) goodSend(p int) {
	q.mu.Lock()
	q.buf = append(q.buf, p)
	q.mu.Unlock()
	_ = q.link.Send(p)
}

// goodNonBlocking: a select with a default clause never blocks.
func (q *egressQueue) goodNonBlocking() {
	q.mu.Lock()
	defer q.mu.Unlock()
	select {
	case q.ch <- 1:
	default:
	}
}

// refundLocked: Refund runs no hooks and is explicitly safe under mu.
func (q *egressQueue) refundLocked() {
	q.link.Refund(1)
}

// relockGood drops mu around the blocking send.
func (q *egressQueue) relockGood(p int) {
	q.mu.Lock()
	if len(q.buf) > 0 {
		q.mu.Unlock()
		_ = q.link.Send(p)
		q.mu.Lock()
	}
	q.buf = append(q.buf, p)
	q.mu.Unlock()
}
