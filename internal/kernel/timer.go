package kernel

import (
	"time"

	"decafdrivers/internal/ktime"
)

// TimerFunc is a kernel-timer callback. The kernel runs timers at high
// priority (softirq context): the passed Context reports InAtomic and may
// not block, so a timer callback can never perform an XPC to user level.
// Drivers that need user-level work from a timer must defer to a work queue
// (DeferToWork), exactly as the Decaf E1000 watchdog does.
type TimerFunc func(ctx *Context)

// KTimer is a kernel timer bound to the virtual clock.
type KTimer struct {
	kernel *Kernel
	fn     TimerFunc
	ctx    *Context
	inner  *ktime.Timer
	expire func() // t.fire, bound once so arming does not allocate it

	period time.Duration // nonzero for self-rearming timers
}

// NewTimer creates a one-shot kernel timer; arm it with Schedule.
func (k *Kernel) NewTimer(name string, fn TimerFunc) *KTimer {
	ctx := k.NewContext("ktimer/" + name)
	ctx.kind = CtxSoftIRQ
	t := &KTimer{kernel: k, fn: fn, ctx: ctx}
	t.expire = t.fire
	return t
}

// Schedule arms the timer to fire after d of virtual time.
func (t *KTimer) Schedule(d time.Duration) {
	t.inner = t.kernel.clock.ScheduleAfter(d, t.expire)
}

// SchedulePeriodic arms the timer to fire every period, rearming itself
// after each expiry — the shape of the E1000 two-second watchdog.
func (t *KTimer) SchedulePeriodic(period time.Duration) {
	if period <= 0 {
		panic("kernel: SchedulePeriodic with non-positive period")
	}
	t.period = period
	t.inner = t.kernel.clock.ScheduleAfter(period, t.expire)
}

func (t *KTimer) fire() {
	t.fn(t.ctx)
	if t.period > 0 {
		t.inner = t.kernel.clock.ScheduleAfter(t.period, t.expire)
	}
}

// Stop cancels the timer (and any periodic rearming). It reports whether a
// pending expiry was cancelled.
func (t *KTimer) Stop() bool {
	t.period = 0
	if t.inner == nil {
		return false
	}
	return t.inner.Stop()
}

// DeferToWork queues fn on the kernel's default work queue. This is the
// bridge Decaf uses to let high-priority code (IRQ handlers, timers) request
// work that must run in user level: the work item runs later in process
// context, where blocking XPCs are legal.
func (k *Kernel) DeferToWork(fn WorkFunc) {
	k.defaultWQ.Queue(fn)
}
