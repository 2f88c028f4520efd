package packet

import (
	"bytes"
	"testing"
)

// TestArenaRoundTrip: a released buffer is handed back out for the same
// size class with zero length and its full class capacity.
func TestArenaRoundTrip(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	b := GetBuf(100)
	if len(b.Data) != 0 || cap(b.Data) < 100 {
		t.Fatalf("GetBuf(100) = len %d cap %d", len(b.Data), cap(b.Data))
	}
	b.Data = append(b.Data, "hello"...)
	first := &b.Data[0]
	PutBuf(b)

	c := GetBuf(100)
	if len(c.Data) != 0 {
		t.Fatalf("recycled buffer has stale length %d", len(c.Data))
	}
	c.Data = c.Data[:1]
	if &c.Data[0] != first {
		t.Error("same-class GetBuf after PutBuf did not recycle the backing array")
	}
	PutBuf(c)
}

// TestArenaOversize: an oversize request yields a plain allocation that
// PutBuf drops without touching the pools.
func TestArenaOversize(t *testing.T) {
	big := GetBuf(1<<arenaMaxClass + 1)
	if big.class != -1 {
		t.Fatalf("oversize buffer got class %d, want -1", big.class)
	}
	_, putsBefore, _ := ArenaStats()
	PutBuf(big) // must not panic or pool
	if _, puts, _ := ArenaStats(); puts != putsBefore {
		t.Error("oversize buffer was pooled")
	}
}

// TestArenaShrunkBufferRetired: a buffer whose Data was resliced below
// its class capacity must not re-enter the pool — the next taker relies
// on the class's full capacity.
func TestArenaShrunkBufferRetired(t *testing.T) {
	b := GetBuf(64)
	b.Data = make([]byte, 0, 8) // simulate a reslice losing capacity
	b.class = arenaMinClass
	_, putsBefore, _ := ArenaStats()
	PutBuf(b)
	if _, puts, _ := ArenaStats(); puts != putsBefore {
		t.Error("shrunk buffer was pooled; next GetBuf would be under-capacity")
	}
}

// TestEncodedBytesPooledRecycle exercises the tracked-packet lifecycle:
// retain → encode (arena body) → release → the next tracked packet of the
// same class reuses the backing array, and the released packet re-encodes
// correctly if asked again.
func TestEncodedBytesPooledRecycle(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	p := MustNew(100, 7, 3, "%d %s", int64(42), "payload")
	p.RetainEncoded(1)
	enc := p.EncodedBytes()
	want := append([]byte(nil), enc...)
	addr := &enc[0]
	if !p.ReleaseEncoded() {
		t.Fatal("final ReleaseEncoded returned false")
	}
	if p.ReleaseEncoded() {
		t.Fatal("second ReleaseEncoded claimed to be final; double release must be a no-op")
	}

	q := MustNew(100, 8, 4, "%d %s", int64(43), "payload")
	q.RetainEncoded(1)
	qenc := q.EncodedBytes()
	if &qenc[0] != addr {
		t.Error("released encode body was not recycled to the next same-class packet")
	}
	q.ReleaseEncoded()

	// p's cache was dropped, not corrupted: a fresh read re-encodes to
	// the same bytes (now untracked, so a plain allocation).
	if got := p.EncodedBytes(); !bytes.Equal(got, want) {
		t.Errorf("re-encode after recycle differs:\n got %x\nwant %x", got, want)
	}
}

// TestRefRecyclesEncodedBody: the Ref.onRelease default hook is the
// return-to-pool point — a k-way fan-out returns the shared encode body
// exactly once, when the last reference goes.
func TestRefRecyclesEncodedBody(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	p := MustNew(100, 7, 3, "%ad", []int64{1, 2, 3})
	r := NewRef(p).Retain(3) // 4 children
	enc := r.Encoded()
	addr := &enc[0]
	for i := 0; i < 3; i++ {
		if r.Release() {
			t.Fatal("non-final release reported final")
		}
		if p.wire.Load() == nil {
			t.Fatal("encode body recycled while references remain")
		}
	}
	if !r.Release() {
		t.Fatal("final release not reported")
	}
	if p.wire.Load() != nil {
		t.Fatal("final release did not drop the wire cache")
	}
	b := GetBuf(p.EncodedSize())
	if b.Data = b.Data[:1]; &b.Data[0] != addr {
		t.Error("final release did not return the encode body to the arena")
	}
	PutBuf(b)
}

// TestRestampSharesValues is the aliasing regression for the single-field
// restamp path (WithSeq/WithStream/WithSrc/WithStreamSrc): the clone must
// share the payload backing arrays — no deep copy — while starting with a
// clean wire cache and no inherited encoded-body holds.
func TestRestampSharesValues(t *testing.T) {
	xs := []float64{1, 2, 3}
	p := MustNew(100, 1, 2, "%d %af", int64(9), xs)
	p.RetainEncoded(1)
	_ = p.EncodedBytes()

	q := p.WithSeq(MakeSeq(2, 1))
	if q == p {
		t.Fatal("WithSeq with a new seq must clone")
	}
	qx, err := q.FloatArray(1)
	if err != nil {
		t.Fatal(err)
	}
	if &qx[0] != &xs[0] {
		t.Error("restamp deep-copied the %af payload; single-field restamps must share the backing array")
	}
	if len(q.Values()) != len(p.Values()) || &q.Values()[0] != &p.Values()[0] {
		t.Error("restamp reallocated the values slice; must alias the original")
	}
	if q.EncodedRefs() != 0 {
		t.Errorf("restamp inherited %d encoded-body holds; clones must start untracked", q.EncodedRefs())
	}
	if q.wire.Load() != nil {
		t.Error("restamp carried the wire cache; a new header encodes to different bytes")
	}

	// The shared payload still encodes correctly from both packets.
	dq, err := Decode(q.Encode())
	if err != nil {
		t.Fatal(err)
	}
	got, err := dq.FloatArray(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Errorf("restamped packet payload decoded to %v", got)
	}
	p.ReleaseEncoded()
}
