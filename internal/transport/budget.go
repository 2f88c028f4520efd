package transport

// Budget is a counting semaphore over send credits, used to carve a
// per-tenant sub-window out of a link's credit window: where a FlowLink
// bounds how many un-retired data packets one LINK direction may carry, a
// Budget bounds how many of those credits one TENANT may hold across all of
// a process's links at once. A session fabric gives each tenant its own
// Budget of one Config.LinkWindow, so a single tenant whose
// subtree has stopped consuming cannot pin every credit of a shared link
// and starve its neighbors' data plane.
//
// A Budget is pure accounting — it wraps no link. A sender takes a token
// (Acquire) before it queues a packet for a link and stamps it on that
// link (FlowLink.StampBudget), so the token returns when the link's credit
// does: the peer's grant, or the link's death. Like FlowLink's window, an
// aborted Budget stops constraining: Acquire succeeds immediately so
// teardown can never wedge a sender.
type Budget struct {
	// credits is the pool. Aborting it releases blocked Acquire callers
	// once the budget's owner is gone (session closed): constraints from a
	// dead tenant are pointless, the caller proceeds and lets stream state
	// surface the truth.
	credits credits
}

// NewBudget returns a budget of n credits. n < 1 is treated as 1 (a
// zero-credit budget could never send and would deadlock its tenant).
func NewBudget(n int) *Budget {
	return &Budget{credits: newCredits(n)}
}

// TryAcquire takes one credit if one is free.
func (b *Budget) TryAcquire() bool { return b.credits.tryTake(1) == 1 }

// Acquire blocks for one credit, aborting (false) if either stop channel
// fires first. Nil stop channels never fire. An aborted budget grants
// immediately, like a dead FlowLink's window.
func (b *Budget) Acquire(stopA, stopB <-chan struct{}) bool {
	return b.credits.take(stopA, stopB)
}

// Release returns n credits. Credits beyond the capacity are discarded,
// which keeps the invariant self-healing (an aborted budget's stragglers
// may double-release).
func (b *Budget) Release(n int) { b.credits.give(n) }

// Abort marks the budget finished: every blocked Acquire proceeds and
// future Acquires succeed immediately. Idempotent. Called when the owning
// session closes, so tenant teardown can never strand a sender on its own
// (now meaningless) sub-window.
func (b *Budget) Abort() { b.credits.abort() }
