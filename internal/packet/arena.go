package packet

import (
	"sync"
	"sync/atomic"
)

// The arena is a set of size-classed sync.Pools backing the two transient
// buffer kinds the steady-state data plane used to heap-allocate per
// packet: encode bodies (the EncodedBytes cache) and frame-assembly
// scratch (AppendFrame destinations in the transports). Buffers circulate
// as *Buf so the wrapper itself is recycled along with its backing array
// and a pool round-trip costs zero allocations.
//
// Ownership discipline (enforced by tbon-lint's poolrelease analyzer):
// every buffer taken with GetBuf must reach exactly one release — PutBuf
// directly, or a handoff that owns the release from then on (storing it as
// a packet's wire cache, whose ReleaseEncoded/recycleWire return it). A
// pooled buffer must never be read after its release: the bytes belong to
// the next taker. Decode aliases its input (a decoded packet's whole
// payload IS a slice of the frame buffer, and forwarding re-sends it from
// there), so READ-side frame buffers are never pooled — only send-side
// scratch and encode bodies, whose lifetimes the custody protocol in
// internal/core bounds explicitly.

// Buf is an arena buffer. Data holds the contents; callers append into
// Data[:0] after GetBuf and may reslice freely — PutBuf recycles whatever
// backing array Data ends up with only when the class label still matches
// a pool, so growth past the class simply retires the buffer to the GC.
type Buf struct {
	// Data is the buffer's current contents. After GetBuf it has zero
	// length and at least the requested capacity.
	Data []byte

	// class is the arena size-class exponent, or -1 for a plain
	// allocation PutBuf will drop (oversize request).
	class int32
}

// Arena size classes: powers of two from 64 B (2^6) to 64 KiB (2^16).
// Packets below 64 B don't exist (minEncodedPacket is 25, but grants and
// heartbeats land in the smallest class), and frames above 64 KiB are
// rare enough — maxEgressFrameBytes-sized flushes — that the GC handles
// the tail.
const (
	arenaMinClass = 6  // 64 B
	arenaMaxClass = 16 // 64 KiB
	arenaClasses  = arenaMaxClass - arenaMinClass + 1
)

var arenaPools [arenaClasses]sync.Pool

var (
	arenaGets   atomic.Int64
	arenaPuts   atomic.Int64
	arenaMisses atomic.Int64
)

// classFor returns the smallest size class holding size bytes, or -1 when
// the request exceeds the largest class.
func classFor(size int) int32 {
	if size > 1<<arenaMaxClass {
		return -1
	}
	c := int32(arenaMinClass)
	for 1<<c < size {
		c++
	}
	return c
}

// GetBuf takes a buffer with capacity for at least size bytes and zero
// length. The caller owns it until exactly one PutBuf or ownership
// handoff (see the package comment above); the poolrelease analyzer
// checks that every path does one or the other.
func GetBuf(size int) *Buf {
	c := classFor(size)
	if c < 0 {
		arenaMisses.Add(1)
		return &Buf{Data: make([]byte, 0, size), class: -1}
	}
	arenaGets.Add(1)
	if v := arenaPools[c-arenaMinClass].Get(); v != nil {
		b := v.(*Buf)
		b.Data = b.Data[:0]
		return b
	}
	arenaMisses.Add(1)
	return &Buf{Data: make([]byte, 0, 1<<c), class: c}
}

// PutBuf returns b to its arena pool. Plain allocations (class -1) and
// buffers whose backing array outgrew the class capacity are dropped to
// the GC instead — a stale class label must never hand a small array to a
// taker that asked for the class's full capacity. Releasing the same
// buffer twice would alias two future takers onto one array; the custody
// protocol (CAS-guarded ReleaseEncoded, single-owner egress slots) and
// the poolrelease analyzer exist to rule that out.
func PutBuf(b *Buf) {
	if b == nil || b.class < 0 {
		return
	}
	if cap(b.Data) < 1<<b.class {
		return // resliced below class capacity; retire to GC
	}
	arenaPuts.Add(1)
	b.Data = b.Data[:0]
	arenaPools[b.class-arenaMinClass].Put(b)
}

// ArenaStats returns the cumulative arena counters: buffers handed out
// from pools, buffers returned to pools, and misses (pool empty, request
// oversize). Gets minus puts bounds the buffers currently in flight plus
// those retired to the GC.
func ArenaStats() (gets, puts, misses int64) {
	return arenaGets.Load(), arenaPuts.Load(), arenaMisses.Load()
}
