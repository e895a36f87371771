// Package ktime provides the virtual clock that drives every latency and
// timer measurement in the simulated kernel.
//
// All Decaf experiments report latencies in virtual time so that test runs
// are fast and deterministic: advancing the clock is explicit, performed by
// the simulation loop (kernel idle loop, workload harness), never by the
// wall clock. Timers scheduled on the clock fire, in timestamp order, during
// Advance.
package ktime

import (
	"container/heap"
	"fmt"
	"sync"
	"time"
)

// Clock is a virtual monotonic clock with an attached timer wheel.
// The zero value is not usable; call NewClock.
type Clock struct {
	mu     sync.Mutex
	now    time.Duration // virtual nanoseconds since boot
	timers timerHeap
	seq    uint64 // tie-breaker so equal deadlines fire FIFO
	firing bool   // guards against re-entrant Advance from a timer callback
}

// NewClock returns a clock whose virtual time starts at zero.
func NewClock() *Clock {
	return &Clock{}
}

// Now reports the current virtual time since boot.
func (c *Clock) Now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Advance moves virtual time forward by d, firing every timer whose deadline
// is reached, in deadline order (FIFO among equal deadlines). Timer callbacks
// run without the clock lock held and observe a Now() equal to their own
// deadline, exactly as a hardware timer interrupt would. Advance panics if
// called re-entrantly from a timer callback; use Schedule instead.
func (c *Clock) Advance(d time.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("ktime: Advance by negative duration %v", d))
	}
	c.mu.Lock()
	if c.firing {
		c.mu.Unlock()
		panic("ktime: re-entrant Advance from timer callback")
	}
	target := c.now + d
	c.firing = true
	for {
		if len(c.timers) == 0 || c.timers[0].deadline > target {
			break
		}
		t := heap.Pop(&c.timers).(*Timer)
		if t.cancelled {
			continue
		}
		// Time observed by the callback is the timer's own deadline.
		if t.deadline > c.now {
			c.now = t.deadline
		}
		fn := t.fn
		t.fired = true
		c.mu.Unlock()
		fn()
		c.mu.Lock()
	}
	if target > c.now {
		c.now = target
	}
	c.firing = false
	c.mu.Unlock()
}

// AdvanceTo moves virtual time forward to the absolute instant t. It is a
// no-op if t is in the past.
func (c *Clock) AdvanceTo(t time.Duration) {
	now := c.Now()
	if t > now {
		c.Advance(t - now)
	}
}

// NextDeadline reports the deadline of the earliest pending timer and whether
// one exists. Cancelled timers at the top of the heap are popped first, as
// Advance pops them, so a stopped timer never reports its deadline.
func (c *Clock) NextDeadline() (time.Duration, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.timers) > 0 && c.timers[0].cancelled {
		heap.Pop(&c.timers)
	}
	if len(c.timers) == 0 {
		return 0, false
	}
	return c.timers[0].deadline, true
}

// Timer is a one-shot virtual timer created by Schedule.
type Timer struct {
	deadline  time.Duration
	seq       uint64
	fn        func()
	cancelled bool
	fired     bool
	clock     *Clock
}

// Stop cancels the timer. It reports whether the timer was still pending
// (false if it already fired or was already stopped).
func (t *Timer) Stop() bool {
	t.clock.mu.Lock()
	defer t.clock.mu.Unlock()
	if t.cancelled || t.fired {
		return false
	}
	t.cancelled = true
	return true
}

// Schedule registers fn to run when virtual time reaches the absolute instant
// at. If at is not after the current time, the timer fires on the next
// Advance (of any amount, including zero).
func (c *Clock) Schedule(at time.Duration, fn func()) *Timer {
	if fn == nil {
		panic("ktime: Schedule with nil callback")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	t := &Timer{deadline: at, seq: c.seq, fn: fn, clock: c}
	c.seq++
	heap.Push(&c.timers, t)
	return t
}

// ScheduleAfter registers fn to run d after the current virtual time.
func (c *Clock) ScheduleAfter(d time.Duration, fn func()) *Timer {
	c.mu.Lock()
	at := c.now + d
	c.mu.Unlock()
	return c.Schedule(at, fn)
}

type timerHeap []*Timer

func (h timerHeap) Len() int { return len(h) }

func (h timerHeap) Less(i, j int) bool {
	if h[i].deadline != h[j].deadline {
		return h[i].deadline < h[j].deadline
	}
	return h[i].seq < h[j].seq
}

func (h timerHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
}

func (h *timerHeap) Push(x any) {
	*h = append(*h, x.(*Timer))
}

func (h *timerHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return t
}
