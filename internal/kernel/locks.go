package kernel

import (
	"sync"
	"time"
)

// Cost model for lock acquisition, used by the spinlock-versus-semaphore
// ablation benchmark (D3). A spinlock acquisition is a handful of cycles; a semaphore
// acquisition involves the scheduler.
const (
	// SpinAcquireCost is the virtual CPU cost of an uncontended spinlock
	// acquisition.
	SpinAcquireCost = 20 * time.Nanosecond
	// SemaphoreAcquireCost is the virtual CPU cost of a semaphore
	// acquisition (schedule + wakeup).
	SemaphoreAcquireCost = 2 * time.Microsecond
)

// SpinLock is a kernel spinlock. While held, the owning context is atomic
// and must not block. Lock ordering and ownership are tracked per Context.
type SpinLock struct {
	name string
	mu   sync.Mutex
}

// NewSpinLock creates a named spinlock.
func NewSpinLock(name string) *SpinLock { return &SpinLock{name: name} }

// Lock acquires the spinlock, entering atomic context.
func (s *SpinLock) Lock(ctx *Context) {
	s.mu.Lock()
	ctx.pushSpin(s.name)
	ctx.Charge(SpinAcquireCost)
}

// Unlock releases the spinlock, leaving atomic context.
func (s *SpinLock) Unlock(ctx *Context) {
	ctx.popSpin(s.name)
	s.mu.Unlock()
}

// Mutex is a kernel mutex: a sleeping lock, illegal to take in atomic
// context. The paper's §3.1.3 modifies the kernel sound libraries to use
// mutexes instead of spinlocks precisely so more driver code can move to
// user level.
type Mutex struct {
	name string
	mu   sync.Mutex
}

// NewMutex creates a named kernel mutex.
func NewMutex(name string) *Mutex { return &Mutex{name: name} }

// Lock acquires the mutex; it faults the kernel if called from atomic
// context.
func (m *Mutex) Lock(ctx *Context) {
	ctx.AssertMayBlock("mutex_lock(" + m.name + ")")
	m.mu.Lock()
	ctx.Charge(SemaphoreAcquireCost)
}

// Unlock releases the mutex.
func (m *Mutex) Unlock(ctx *Context) {
	m.mu.Unlock()
}

// Semaphore is a counting semaphore usable from process context.
type Semaphore struct {
	name string
	ch   chan struct{}
}

// NewSemaphore creates a semaphore with the given initial count.
func NewSemaphore(name string, count int) *Semaphore {
	s := &Semaphore{name: name, ch: make(chan struct{}, count)}
	for i := 0; i < count; i++ {
		s.ch <- struct{}{}
	}
	return s
}

// Down acquires one unit, blocking if none are available; it faults the
// kernel if called from atomic context.
func (s *Semaphore) Down(ctx *Context) {
	ctx.AssertMayBlock("down(" + s.name + ")")
	<-s.ch
	ctx.Charge(SemaphoreAcquireCost)
}

// Up releases one unit.
func (s *Semaphore) Up(ctx *Context) {
	select {
	case s.ch <- struct{}{}:
	default:
		panic("kernel: semaphore " + s.name + " Up past initial count")
	}
}
