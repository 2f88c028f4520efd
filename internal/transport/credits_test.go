package transport

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitWaiters polls until n callers are blocked on c.
func waitWaiters(t *testing.T, c *credits, n int32) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for c.waiters.Load() != n {
		if time.Now().After(deadline) {
			t.Fatalf("%d waiters blocked, want %d", c.waiters.Load(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFlowLinkRefillWakesEveryBlockedAcquire: one grant of W credits wakes
// W blocked senders. A single refill leaves one wake-up, so this holds only
// if each woken sender passes it on while credits remain.
func TestFlowLinkRefillWakesEveryBlockedAcquire(t *testing.T) {
	a, b := NewPair(4)
	defer a.Close()
	defer b.Close()
	const w = 4
	f := NewFlowLink(a, w)
	if got := f.TryAcquireN(w + 3); got != w {
		t.Fatalf("TryAcquireN took %d credits of a window of %d", got, w)
	}
	stop := make(chan struct{})
	defer close(stop)
	done := make(chan bool, w)
	for i := 0; i < w; i++ {
		go func() { done <- f.Acquire(stop, nil) }()
	}
	waitWaiters(t, &f.credits, w)
	grant(f, w)
	timeout := time.After(time.Second)
	for i := 0; i < w; i++ {
		select {
		case ok := <-done:
			if !ok {
				t.Fatal("Acquire aborted")
			}
		case <-timeout:
			t.Fatalf("%d of %d blocked senders still asleep 1s after a refill of %d", w-i, w, w)
		}
	}
	if got := f.Available(); got != 0 {
		t.Fatalf("%d credits free after %d senders took the refill", got, w)
	}
}

// TestFlowLinkCountedCreditsHammer: senders taking credits n at a time
// (TryAcquireN) or one at a time (Acquire), refunding part of what they
// took, and a peer granting back what was sent, never have more than W
// credits in flight; once everything is granted back the window is full.
func TestFlowLinkCountedCreditsHammer(t *testing.T) {
	a, b := NewPair(4)
	defer a.Close()
	defer b.Close()
	const w, senders, iters = 8, 4, 2000
	f := NewFlowLink(a, w)
	// inFlight counts credits a sender holds or has sent and not had
	// granted back. It rises only after a credit is taken and falls before
	// one is returned, so it can exceed w only if the pool over-admits.
	var inFlight, sent, over atomic.Int64
	hold := func(k int) {
		if inFlight.Add(int64(k)) > w {
			over.Add(1)
		}
	}
	spend := func(rng *rand.Rand, k int) {
		back := rng.Intn(k + 1)
		inFlight.Add(-int64(back))
		f.Refund(back)
		sent.Add(int64(k - back))
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < iters; i++ {
				if rng.Intn(4) == 0 {
					if !f.Acquire(stop, nil) {
						return
					}
					hold(1)
					spend(rng, 1)
				} else if k := f.TryAcquireN(1 + rng.Intn(5)); k > 0 {
					hold(k)
					spend(rng, k)
				}
			}
		}(int64(g))
	}
	granted := make(chan struct{})
	go func() {
		defer close(granted)
		rng := rand.New(rand.NewSource(99))
		for {
			select {
			case <-stop:
				return
			default:
			}
			cur := sent.Load()
			n := min(cur, int64(1+rng.Intn(w)))
			if n == 0 || !sent.CompareAndSwap(cur, cur-n) {
				runtime.Gosched()
				continue
			}
			inFlight.Add(-n)
			grant(f, int(n))
		}
	}()
	wg.Wait()
	close(stop)
	<-granted
	if n := over.Load(); n > 0 {
		t.Fatalf("more than %d credits in flight %d times", w, n)
	}
	inFlight.Add(-sent.Load())
	grant(f, int(sent.Swap(0)))
	if got := f.Available(); got != w || inFlight.Load() != 0 {
		t.Fatalf("after granting everything back: %d credits free (want %d), %d in flight", got, w, inFlight.Load())
	}
}
