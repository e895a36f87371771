package kernel

import (
	"sync"
	"time"
)

// WorkFunc is a deferred work item body. It runs in process context and may
// block — this is exactly why Decaf converts driver timers into work items:
// "we convert timers to enqueue a work item, which executes on a separate
// thread and allows blocking operations. Thus, the watchdog timer can
// execute in the decaf driver." (paper §3.1.3).
type WorkFunc func(ctx *Context)

// WorkScheduleCost is the virtual CPU cost of queueing plus dispatching one
// work item (enqueue, wakeup, dequeue).
const WorkScheduleCost = 3 * time.Microsecond

// Workqueue is a kernel work queue. Items are drained explicitly by the
// simulation loop (Drain), keeping experiments deterministic; each item runs
// under the queue's own process context.
type Workqueue struct {
	kernel *Kernel
	name   string

	mu sync.Mutex
	// items always starts at the front of its backing array: Drain pops by
	// shifting the rest down (a handful at most), so Queue reuses the array
	// instead of growing a fresh one behind a creeping slice.
	items   []WorkFunc
	ctx     *Context
	queued  uint64
	drained uint64
}

// NewWorkqueue creates a named work queue with its own worker context.
func (k *Kernel) NewWorkqueue(name string) *Workqueue {
	return &Workqueue{kernel: k, name: name, ctx: k.NewContext("kworker/" + name)}
}

// Name reports the queue name.
func (w *Workqueue) Name() string { return w.name }

// Queue appends a work item. Safe from any context, including hard IRQ.
func (w *Workqueue) Queue(fn WorkFunc) {
	if fn == nil {
		panic("kernel: Queue(nil)")
	}
	w.mu.Lock()
	w.items = append(w.items, fn)
	w.queued++
	w.mu.Unlock()
}

// Pending reports how many items await draining.
func (w *Workqueue) Pending() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.items)
}

// Drain runs queued items (including ones queued by the items themselves)
// until the queue is empty, and reports how many ran.
func (w *Workqueue) Drain() int {
	ran := 0
	for {
		w.mu.Lock()
		if len(w.items) == 0 {
			w.mu.Unlock()
			return ran
		}
		fn := w.items[0]
		n := copy(w.items, w.items[1:])
		w.items[n] = nil // a drained item's captures are not pinned
		w.items = w.items[:n]
		w.drained++
		ctx := w.ctx
		w.mu.Unlock()
		ctx.Charge(WorkScheduleCost)
		fn(ctx)
		ran++
	}
}

// Stats reports items queued and drained over the queue's lifetime.
func (w *Workqueue) Stats() (queued, drained uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.queued, w.drained
}

// WorkerContext exposes the queue's process context (for accounting
// assertions in tests).
func (w *Workqueue) WorkerContext() *Context { return w.ctx }
