package transport

import (
	"sync"
	"sync/atomic"
)

// credits is a counting semaphore of fixed capacity kept as an integer, so
// a batch of n credits moves in one atomic step rather than n channel
// operations. It backs both a FlowLink's send window and a tenant Budget.
//
// A caller that finds no credit free waits on wake, a one-slot channel
// that every give signals while somebody waits. One signal can stand for
// several freed credits, so a woken waiter that leaves credits behind
// passes the signal on: with several blocked waiters none stays asleep
// while credits are free.
type credits struct {
	cap     int64
	used    atomic.Int64
	waiters atomic.Int32
	wake    chan struct{}
	// dead releases blocked takers once the owner is finished (a closed
	// link, a closed session): they proceed without a credit.
	dead     chan struct{}
	deadOnce sync.Once
}

func newCredits(n int) credits {
	return credits{cap: int64(max(n, 1)), wake: make(chan struct{}, 1), dead: make(chan struct{})}
}

// available reports how many credits are free, without taking any.
func (c *credits) available() int { return int(c.cap - c.used.Load()) }

// tryTake takes up to n free credits and returns how many it took.
func (c *credits) tryTake(n int) int {
	for {
		cur := c.used.Load()
		k := min(int64(n), c.cap-cur)
		if k <= 0 {
			return 0
		}
		if c.used.CompareAndSwap(cur, cur+k) {
			return int(k)
		}
	}
}

// give returns n credits and wakes a waiter. Credits beyond the capacity
// are discarded, which keeps the count self-healing.
func (c *credits) give(n int) {
	if n <= 0 {
		return
	}
	for {
		cur := c.used.Load()
		if c.used.CompareAndSwap(cur, max(cur-int64(n), 0)) {
			break
		}
	}
	c.signal()
}

// signal leaves a wake-up for the waiters, if there are any. A waiter
// registers before its last look at the count, and a giver frees credits
// before it looks for waiters, so one of the two always sees the other.
func (c *credits) signal() {
	if c.waiters.Load() > 0 {
		select {
		case c.wake <- struct{}{}:
		default: // a wake-up is already pending
		}
	}
}

// take blocks for one credit, aborting (false) if either stop channel
// fires first; nil stop channels never fire. Once the owner is dead it
// returns true without a credit.
func (c *credits) take(stopA, stopB <-chan struct{}) bool {
	if c.tryTake(1) == 1 {
		return true
	}
	c.waiters.Add(1)
	for c.tryTake(1) == 0 {
		select {
		case <-c.wake:
			continue
		case <-c.dead:
			c.waiters.Add(-1)
			return true
		case <-stopA:
		case <-stopB:
		}
		c.waiters.Add(-1)
		return false
	}
	c.waiters.Add(-1)
	if c.available() > 0 {
		c.signal()
	}
	return true
}

// abort marks the owner finished, releasing every blocked take. Idempotent.
func (c *credits) abort() {
	c.deadOnce.Do(func() { close(c.dead) })
}
