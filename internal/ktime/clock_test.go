package ktime

import (
	"testing"
	"testing/quick"
	"time"
)

func TestClockStartsAtZero(t *testing.T) {
	c := NewClock()
	if got := c.Now(); got != 0 {
		t.Fatalf("Now() = %v, want 0", got)
	}
}

func TestAdvanceMovesTime(t *testing.T) {
	c := NewClock()
	c.Advance(5 * time.Millisecond)
	if got := c.Now(); got != 5*time.Millisecond {
		t.Fatalf("Now() = %v, want 5ms", got)
	}
	c.Advance(0)
	if got := c.Now(); got != 5*time.Millisecond {
		t.Fatalf("Now() after Advance(0) = %v, want 5ms", got)
	}
}

func TestAdvanceNegativePanics(t *testing.T) {
	c := NewClock()
	defer func() {
		if recover() == nil {
			t.Fatal("Advance(-1) did not panic")
		}
	}()
	c.Advance(-1)
}

func TestTimerFiresAtDeadline(t *testing.T) {
	c := NewClock()
	var observed time.Duration = -1
	c.Schedule(10*time.Millisecond, func() { observed = c.Now() })
	c.Advance(9 * time.Millisecond)
	if observed != -1 {
		t.Fatalf("timer fired early at %v", observed)
	}
	c.Advance(1 * time.Millisecond)
	if observed != 10*time.Millisecond {
		t.Fatalf("timer observed Now()=%v, want 10ms", observed)
	}
}

func TestTimerOrderingFIFOAmongEqualDeadlines(t *testing.T) {
	c := NewClock()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		c.Schedule(time.Millisecond, func() { order = append(order, i) })
	}
	c.Advance(time.Millisecond)
	for i, v := range order {
		if v != i {
			t.Fatalf("firing order %v, want FIFO", order)
		}
	}
}

func TestTimersFireInDeadlineOrder(t *testing.T) {
	c := NewClock()
	var order []time.Duration
	for _, d := range []time.Duration{30, 10, 20} {
		d := d * time.Millisecond
		c.Schedule(d, func() { order = append(order, d) })
	}
	c.Advance(time.Second)
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond}
	if len(order) != len(want) {
		t.Fatalf("fired %d timers, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("firing order %v, want %v", order, want)
		}
	}
}

func TestStopPendingTimer(t *testing.T) {
	c := NewClock()
	fired := false
	tm := c.Schedule(time.Millisecond, func() { fired = true })
	if !tm.Stop() {
		t.Fatal("Stop() = false for pending timer")
	}
	if tm.Stop() {
		t.Fatal("second Stop() = true")
	}
	c.Advance(time.Second)
	if fired {
		t.Fatal("stopped timer fired")
	}
}

func TestStopAfterFire(t *testing.T) {
	c := NewClock()
	tm := c.Schedule(time.Millisecond, func() {})
	c.Advance(time.Second)
	if tm.Stop() {
		t.Fatal("Stop() = true for fired timer")
	}
}

func TestScheduleAfter(t *testing.T) {
	c := NewClock()
	c.Advance(5 * time.Millisecond)
	var at time.Duration
	c.ScheduleAfter(2*time.Millisecond, func() { at = c.Now() })
	c.Advance(10 * time.Millisecond)
	if at != 7*time.Millisecond {
		t.Fatalf("ScheduleAfter fired at %v, want 7ms", at)
	}
}

func TestScheduleInPastFiresOnNextAdvance(t *testing.T) {
	c := NewClock()
	c.Advance(10 * time.Millisecond)
	fired := false
	c.Schedule(time.Millisecond, func() { fired = true })
	c.Advance(0)
	if !fired {
		t.Fatal("past-deadline timer did not fire on Advance(0)")
	}
	if got := c.Now(); got != 10*time.Millisecond {
		t.Fatalf("time moved backwards to %v", got)
	}
}

func TestTimerCallbackCanSchedule(t *testing.T) {
	c := NewClock()
	count := 0
	var rearm func()
	rearm = func() {
		count++
		if count < 3 {
			c.ScheduleAfter(time.Millisecond, rearm)
		}
	}
	c.ScheduleAfter(time.Millisecond, rearm)
	c.Advance(10 * time.Millisecond)
	if count != 3 {
		t.Fatalf("chained timer fired %d times, want 3", count)
	}
}

func TestPendingTimers(t *testing.T) {
	c := NewClock()
	pending := func() int {
		n := 0
		for _, t := range c.timers {
			if !t.cancelled {
				n++
			}
		}
		return n
	}
	t1 := c.Schedule(time.Millisecond, func() {})
	c.Schedule(2*time.Millisecond, func() {})
	if got := pending(); got != 2 {
		t.Fatalf("PendingTimers = %d, want 2", got)
	}
	t1.Stop()
	if got := pending(); got != 1 {
		t.Fatalf("PendingTimers after Stop = %d, want 1", got)
	}
}

func TestNextDeadline(t *testing.T) {
	c := NewClock()
	if _, ok := c.NextDeadline(); ok {
		t.Fatal("NextDeadline reported a timer on an empty clock")
	}
	c.Schedule(7*time.Millisecond, func() {})
	d, ok := c.NextDeadline()
	if !ok || d != 7*time.Millisecond {
		t.Fatalf("NextDeadline = %v,%v want 7ms,true", d, ok)
	}

	// A stopped timer at the top of the heap is not the next deadline.
	c = NewClock()
	early := c.Schedule(5*time.Millisecond, func() {})
	c.Schedule(10*time.Millisecond, func() {})
	early.Stop()
	if d, ok := c.NextDeadline(); !ok || d != 10*time.Millisecond {
		t.Fatalf("NextDeadline = %v,%v with the 5ms timer stopped, want 10ms,true", d, ok)
	}
}

func TestReentrantAdvancePanics(t *testing.T) {
	c := NewClock()
	panicked := false
	c.Schedule(time.Millisecond, func() {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		c.Advance(time.Millisecond)
	})
	c.Advance(time.Second)
	if !panicked {
		t.Fatal("re-entrant Advance did not panic")
	}
}

// Property: time is monotone under any sequence of Advance calls, and the sum
// of advances equals the final Now.
func TestAdvanceMonotoneProperty(t *testing.T) {
	f := func(steps []uint16) bool {
		c := NewClock()
		var total time.Duration
		prev := c.Now()
		for _, s := range steps {
			d := time.Duration(s) * time.Microsecond
			c.Advance(d)
			total += d
			now := c.Now()
			if now < prev {
				return false
			}
			prev = now
		}
		return c.Now() == total
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: with n timers at distinct deadlines, all fire exactly once in
// sorted order after advancing past the max deadline.
func TestTimerOrderProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		c := NewClock()
		seen := make(map[time.Duration]bool)
		var deadlines []time.Duration
		for _, r := range raw {
			d := time.Duration(r+1) * time.Microsecond
			if seen[d] {
				continue
			}
			seen[d] = true
			deadlines = append(deadlines, d)
		}
		var fired []time.Duration
		for _, d := range deadlines {
			d := d
			c.Schedule(d, func() { fired = append(fired, d) })
		}
		c.Advance(time.Hour)
		if len(fired) != len(deadlines) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i-1] >= fired[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
