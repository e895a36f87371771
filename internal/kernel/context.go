// Package kernel simulates the Linux-kernel execution environment the Decaf
// driver nucleus runs in: modules, interrupt dispatch, kernel timers, work
// queues, and the locking regime (spinlocks, mutexes and semaphores; a
// Microdrivers combolock acquired only in the kernel is a spinlock).
//
// The property the package exists to enforce and measure is the paper's
// placement constraint (§3.1.3): code running at high priority — in hard-IRQ
// context, or holding a spinlock — must never invoke user-level code, because
// doing so would require invoking the scheduler. Every execution happens
// under a Context that tracks interrupt nesting, atomic (spinlock) depth and
// CPU-time accounting, and the XPC layer refuses user-mode crossings from a
// context that may not block.
package kernel

import (
	"fmt"
	"sync/atomic"
	"time"
)

// ContextKind labels why an execution context exists, mirroring the kernel's
// process / softirq / hardirq distinction.
type ContextKind int

// Context kinds.
const (
	// CtxProcess is ordinary process (kernel thread or syscall) context.
	CtxProcess ContextKind = iota
	// CtxSoftIRQ is deferred-interrupt context (timers, tasklets).
	CtxSoftIRQ
	// CtxHardIRQ is hardware interrupt context.
	CtxHardIRQ
)

func (k ContextKind) String() string {
	switch k {
	case CtxProcess:
		return "process"
	case CtxSoftIRQ:
		return "softirq"
	case CtxHardIRQ:
		return "hardirq"
	default:
		return fmt.Sprintf("ContextKind(%d)", int(k))
	}
}

// Context is the simulated task/interrupt context a piece of kernel or
// driver code executes under. It is passed explicitly where the real kernel
// would consult `current` and preempt counters.
type Context struct {
	kernel *Kernel
	name   string
	kind   ContextKind

	// atomicDepth counts held spinlocks; while positive the context must
	// not block.
	atomicDepth int
	// irqDepth counts nested hard-IRQ entries.
	irqDepth int
	// heldSpinlocks names the spinlocks held, for diagnostics.
	heldSpinlocks []string

	// busy is CPU time charged to this context.
	busy time.Duration
	// elapsed is busy plus time spent sleeping (MSleep, XPC wait).
	elapsed time.Duration

	// laneHint caches the XPC submission lane this context last claimed
	// (stored as index+1; zero means no hint). Atomic because the transport
	// reads and refreshes it on the lock-free submit fast path, which other
	// bookkeeping (counter snapshots) may observe concurrently.
	laneHint atomic.Uint32
}

// NewContext creates a process-context execution context owned by the kernel.
func (k *Kernel) NewContext(name string) *Context {
	return &Context{kernel: k, name: name, kind: CtxProcess}
}

// Kind reports the current context kind (hardirq wins over the base kind).
func (c *Context) Kind() ContextKind {
	if c.irqDepth > 0 {
		return CtxHardIRQ
	}
	return c.kind
}

// InAtomic reports whether the context holds any spinlock or is in interrupt
// context; in either case it must not block.
func (c *Context) InAtomic() bool {
	return c.atomicDepth > 0 || c.irqDepth > 0 || c.kind == CtxSoftIRQ
}

// MayBlock reports whether the context is allowed to sleep — the gate for
// mutexes, semaphores and XPC crossings to user level.
func (c *Context) MayBlock() bool { return !c.InAtomic() }

// AssertMayBlock faults the kernel if the context may not block. op names
// the attempted operation for the diagnostic.
func (c *Context) AssertMayBlock(op string) {
	if c.MayBlock() {
		return
	}
	c.kernel.Oops(fmt.Errorf("kernel: %s from atomic context %q (kind=%v, atomic=%d, locks=%v)",
		op, c.name, c.Kind(), c.atomicDepth, c.heldSpinlocks))
}

// enterIRQ/exitIRQ bracket hard-IRQ handler execution.
func (c *Context) enterIRQ() { c.irqDepth++ }

func (c *Context) exitIRQ() {
	if c.irqDepth == 0 {
		panic("kernel: exitIRQ without enterIRQ")
	}
	c.irqDepth--
}

func (c *Context) pushSpin(name string) {
	c.atomicDepth++
	c.heldSpinlocks = append(c.heldSpinlocks, name)
}

func (c *Context) popSpin(name string) {
	if c.atomicDepth == 0 {
		panic(fmt.Sprintf("kernel: unlock of %q with no spinlock held", name))
	}
	c.atomicDepth--
	for i := len(c.heldSpinlocks) - 1; i >= 0; i-- {
		if c.heldSpinlocks[i] == name {
			c.heldSpinlocks = append(c.heldSpinlocks[:i], c.heldSpinlocks[i+1:]...)
			return
		}
	}
	panic(fmt.Sprintf("kernel: unlock of %q not held by context %q", name, c.name))
}

// LaneHint reports the XPC submission lane this context last claimed, if
// any: the affinity cache that lets a steady submitter land on the same
// uncontended lane every crossing.
//
//decaf:hotpath
func (c *Context) LaneHint() (idx uint32, ok bool) {
	v := c.laneHint.Load()
	return v - 1, v != 0
}

// SetLaneHint records the submission lane this context claimed.
//
//decaf:hotpath
func (c *Context) SetLaneHint(idx uint32) { c.laneHint.Store(idx + 1) }

// Charge accounts d of CPU time to this context and to the kernel's global
// accounting bucket for the context's current kind.
func (c *Context) Charge(d time.Duration) {
	if d < 0 {
		panic("kernel: negative charge")
	}
	c.busy += d
	c.elapsed += d
	c.kernel.accounting.Charge(c.Kind(), d)
}

// Sleep accounts d of non-CPU elapsed time (the context was blocked).
// It faults the kernel if the context may not block.
func (c *Context) Sleep(d time.Duration) {
	c.AssertMayBlock("sleep")
	c.elapsed += d
}

// MSleep models the driver-visible msleep(ms): elapsed time passes while the
// CPU is free.
func (c *Context) MSleep(ms int) {
	c.Sleep(time.Duration(ms) * time.Millisecond)
}

// UDelay models udelay(us): a busy-wait, legal in atomic context, charged as
// CPU time.
func (c *Context) UDelay(us int) {
	c.Charge(time.Duration(us) * time.Microsecond)
}

// Busy reports total CPU time charged to the context.
func (c *Context) Busy() time.Duration { return c.busy }

// Elapsed reports busy plus slept time for the context.
func (c *Context) Elapsed() time.Duration { return c.elapsed }
