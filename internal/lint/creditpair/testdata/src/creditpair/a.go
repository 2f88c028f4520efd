// Fixture for the creditpair analyzer: every acquired send credit must be
// spent on a send or given back on every control-flow path.
package creditpair

import "errors"

type FlowLink struct{}

func (f *FlowLink) Acquire(a, b <-chan struct{}) bool { return true }
func (f *FlowLink) TryAcquire() bool                  { return true }
func (f *FlowLink) TryAcquireN(n int) int             { return n }
func (f *FlowLink) Refund(n int)                      {}
func (f *FlowLink) Abort()                            {}
func (f *FlowLink) Send(p any) error                  { return nil }

type Budget struct{}

func (b *Budget) Acquire(a, c <-chan struct{}) bool { return true }
func (b *Budget) Release(n int)                     {}

var errStalled = errors.New("stalled")
var errTooBig = errors.New("too big")

func tooBig() bool { return false }

func work() error { return nil }

// leakOnEarlyReturn acquires, then returns on the size check without
// refunding: the classic leak.
func leakOnEarlyReturn(f *FlowLink, stop <-chan struct{}) error {
	if !f.Acquire(stop, nil) { // want `credit acquired by Acquire may leak`
		return errStalled
	}
	if tooBig() {
		return errTooBig
	}
	return f.Send(struct{}{})
}

// leakStatementForm acquires in statement position and falls into an
// unguarded error return.
func leakStatementForm(f *FlowLink, b *Budget, stop <-chan struct{}) error {
	b.Acquire(stop, nil) // want `credit acquired by Acquire may leak`
	if err := work(); err != nil {
		return err
	}
	return f.Send(struct{}{})
}

// refundOnError settles every path: send on success, refund on the error
// arm, refund before the early return.
func refundOnError(f *FlowLink, stop <-chan struct{}) error {
	if !f.Acquire(stop, nil) {
		return errStalled
	}
	if tooBig() {
		f.Refund(1)
		return errTooBig
	}
	if err := f.Send(struct{}{}); err != nil {
		return err
	}
	return nil
}

// leakCounted takes a batch's credits and returns on the size check
// without refunding them.
func leakCounted(f *FlowLink, n int) error {
	k := f.TryAcquireN(n) // want `credit acquired by TryAcquireN may leak`
	if k == 0 {
		return errStalled
	}
	if tooBig() {
		return errTooBig
	}
	return f.Send(struct{}{})
}

// refundCounted holds credits only while k > 0: the k == 0 arm holds none,
// and the size check refunds what it took.
func refundCounted(f *FlowLink, n int) error {
	k := f.TryAcquireN(n)
	if k == 0 {
		return errStalled
	}
	if tooBig() {
		f.Refund(k)
		return errTooBig
	}
	return f.Send(struct{}{})
}

// probe is a TryAcquire→Refund window-liveness probe.
func probe(f *FlowLink) bool {
	if f == nil || !f.TryAcquire() {
		return false
	}
	f.Refund(1)
	return true
}

// abortOnShutdown settles via Abort.
func abortOnShutdown(f *FlowLink, stop <-chan struct{}, dying bool) error {
	if !f.Acquire(stop, nil) {
		return errStalled
	}
	if dying {
		f.Abort()
		return errStalled
	}
	return f.Send(struct{}{})
}

// drainLoop acquires and sends once per iteration; no credit survives an
// iteration boundary.
func drainLoop(f *FlowLink, ps []any, stop <-chan struct{}) {
	for _, p := range ps {
		if !f.Acquire(stop, nil) {
			return
		}
		_ = f.Send(p)
	}
}

// deferredRefund is covered by the deferred release on every exit.
func deferredRefund(f *FlowLink, stop <-chan struct{}) error {
	if !f.Acquire(stop, nil) {
		return errStalled
	}
	defer f.Refund(1)
	return work()
}

// take transfers credit ownership to the returned batch, which the caller
// is contractually bound to send or refund — the sanctioned exception,
// recorded with an auditable directive.
//
//tbon:allow creditpair credits transfer to the returned batch; the caller sends it or restores and refunds
func take(f *FlowLink, ps []any) ([]any, bool) {
	for range ps {
		if !f.TryAcquire() {
			return ps, true
		}
	}
	return ps, false
}
