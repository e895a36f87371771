package xpc

import (
	"errors"
	"sync/atomic"
	"time"

	"decafdrivers/internal/kernel"
	"decafdrivers/internal/trace"
)

// Submission errors. Completions resolved on a failure path carry one of
// these (or the call's own error) so waiters always learn the outcome.
var (
	// ErrCrossingAborted resolves a submission that never executed because
	// an earlier call in the same flush failed or faulted.
	ErrCrossingAborted = errors.New("xpc: crossing aborted by earlier failure")
	// ErrQueueFull is the fail-fast backpressure outcome: the async
	// submission ring had no free slot.
	ErrQueueFull = errors.New("xpc: async submission ring full")
	// ErrTransportClosed resolves submissions still queued when an async
	// transport shuts down, and rejects submissions after Close.
	ErrTransportClosed = errors.New("xpc: transport closed")
	// ErrTransportBound rejects a Submit through an AsyncTransport already
	// serving a different runtime (the service goroutine, queue and service
	// context are per-runtime state).
	ErrTransportBound = errors.New("xpc: async transport already bound to another runtime")
)

// Submission is one crossing request in flight through a Transport: the Call
// to deliver plus the Completion handle the caller observes it through.
// Transports resolve every admitted submission's Completion exactly once —
// with the call's result, or with a queue/abort error if it never ran.
type Submission struct {
	// Call is the crossing request.
	Call *Call
	// Completion is the observable outcome. Runtime.Admit populates it when
	// nil; callers that need the handle before submitting may create it via
	// Runtime.NewSubmission.
	Completion *Completion

	// err and mark are the crossing engine's scratch while the chunk this
	// submission rides in executes: the body's outcome and the chunk's
	// cumulative cost once it ran, held here until the whole chunk is known
	// to have survived (a fault resolves nothing back) and resolution starts.
	err  error
	mark time.Duration
}

// NewSubmission wraps a call with a fresh Completion handle bound to this
// runtime. The Batch builder and the blocking sugar do not come through
// here: their calls ride pooled records (see callRecord).
func (r *Runtime) NewSubmission(c *Call) *Submission {
	return &Submission{Call: c, Completion: newCompletion(r, c.Name, c.Up)}
}

// FaultEvent describes one contained decaf-side fault, delivered to the
// runtime's fault notifier (SetFaultNotifier) as the faulted submission's
// Completion resolves. A recovery supervisor treats it as the crash signal:
// the kernel survived, the call failed, and the decaf driver is suspect.
type FaultEvent struct {
	// Call is the entry point whose body faulted.
	Call string
	// Up reports the crossing direction (true for upcalls).
	Up bool
	// Err is the *UserFault the completion resolved with.
	Err error
	// At is the virtual instant the faulted crossing completed.
	At time.Duration
}

// Completion is the handle for one submitted crossing. It resolves exactly
// once, carrying the call's result (error or contained fault), its cost
// split into queue wait and crossing time, and the virtual-clock instant the
// crossing completed at. All accessors except Done and Settled block until
// the completion resolves.
//
// Virtual completion time: an asynchronous transport executes the decaf side
// on its own timeline, so a submission completes at a definite virtual
// instant (submit time + queue wait + crossing cost) that may lie in the
// caller's future. Wait charges the waiting context only the portion of that
// latency not already hidden by work the caller did in the meantime — the
// §4.2 overlap the submit/complete split exists to expose.
type Completion struct {
	name string
	up   bool
	r    *Runtime

	// ch is the whole settle state in one word: nil while unresolved with
	// nobody blocked, a waiter-installed channel while unresolved with
	// somebody blocked (or holding Done's channel), settledCh once resolved.
	// An inline transport resolves before Submit returns, so on that path no
	// channel ever exists and every accessor is one atomic load.
	ch atomic.Pointer[chan struct{}]

	// Resolved fields, written exactly once before ch becomes settledCh and
	// immutable after; that swap publishes them.
	err        error
	fault      bool
	queueWait  time.Duration
	crossCost  time.Duration
	completeAt time.Duration

	submitClock time.Duration
}

// settledCh is the value of Completion.ch once resolved: a channel closed
// for good, so Done on a settled completion still hands back something a
// select can fall through.
var settledCh = func() *chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return &ch
}()

func newCompletion(r *Runtime, name string, up bool) *Completion {
	return &Completion{name: name, up: up, r: r}
}

// settle publishes the resolved fields and wakes whoever blocked. A second
// settle closes settledCh itself and panics: the exactly-once rule has the
// teeth the bare channel close gave it.
//
//decaf:hotpath
func (c *Completion) settle() {
	if waiters := c.ch.Swap(settledCh); waiters != nil {
		close(*waiters)
	}
}

// resolve publishes the outcome. queueWait and completeAt must already be
// stamped by the transport; crossCost is this call's share of the crossing.
// A fault outcome is additionally delivered to the runtime's fault notifier
// after the completion settles, from values read before it did: once
// settled, the completion may be a pooled record's and already recycled.
//
//decaf:hotpath
func (c *Completion) resolve(err error, fault bool, crossCost time.Duration) {
	c.resolveOn(nil, err, fault, crossCost)
}

// resolveOn is resolve for a caller that already holds the counter cell of
// the completion's name (nil: look it up).
//
//decaf:hotpath
func (c *Completion) resolveOn(cell *counterCell, err error, fault bool, crossCost time.Duration) {
	r, ev := c.r, FaultEvent{Call: c.name, Up: c.up, Err: err, At: c.completeAt}
	c.err = err
	c.fault = fault
	c.crossCost = crossCost
	if r != nil {
		if cell == nil {
			cell = r.state().cell(ev.Call)
		}
		r.noteCompletion(cell, ev.Call, c.queueWait, crossCost, fault)
		r.inFlight.Add(-1)
	}
	c.settle()
	if fault && r != nil {
		if fp := r.faultNotifier.Load(); fp != nil {
			(*fp)(ev)
		}
	}
}

// fold accumulates a settled child into an aggregate: the first error in
// submission order (after any error the aggregate started from), any fault,
// the longest queue wait, the combined crossing cost and the latest virtual
// completion instant.
func (c *Completion) fold(child *Completion) {
	if c.err == nil {
		c.err = child.err
	}
	c.fault = c.fault || child.fault
	c.queueWait = max(c.queueWait, child.queueWait)
	c.crossCost += child.crossCost
	c.completeAt = max(c.completeAt, child.completeAt)
}

// settled reports whether the completion has resolved, without blocking.
//
//decaf:hotpath
func (c *Completion) settled() bool { return c.ch.Load() == settledCh }

// Done returns a channel closed when the completion resolves. The channel is
// created on first demand — here, or by an accessor that has to block — and
// every caller before resolution gets the same one.
//
//decaf:hotpath
func (c *Completion) Done() <-chan struct{} {
	for {
		if ch := c.ch.Load(); ch != nil {
			return *ch
		}
		//decaf:allowalloc the slow path: only a caller that has to block on (or asks to select on) an unresolved completion pays for its channel
		ch := make(chan struct{})
		if c.ch.CompareAndSwap(nil, &ch) {
			return ch
		}
	}
}

// wait blocks until the completion resolves.
//
//decaf:hotpath
func (c *Completion) wait() {
	if !c.settled() {
		<-c.Done()
	}
}

// Err blocks until the completion resolves and returns the call's error
// (nil, the call's own error, a *UserFault, or a queue/abort error).
func (c *Completion) Err() error {
	c.wait()
	return c.err
}

// Faulted blocks until resolution and reports whether the decaf side
// panicked: the fault was contained and failed only this completion.
func (c *Completion) Faulted() bool {
	c.wait()
	return c.fault
}

// QueueWait blocks until resolution and reports the virtual time the
// submission waited behind earlier work before its crossing started.
func (c *Completion) QueueWait() time.Duration {
	c.wait()
	return c.queueWait
}

// CrossLatency blocks until resolution and reports this call's share of the
// crossing's virtual cost (transition, marshaling, execution).
func (c *Completion) CrossLatency() time.Duration {
	c.wait()
	return c.crossCost
}

// Latency blocks until resolution and reports queue wait plus crossing cost.
func (c *Completion) Latency() time.Duration {
	c.wait()
	return c.queueWait + c.crossCost
}

// CompleteAt blocks until resolution and reports the virtual-clock instant
// the crossing completed. Inline transports complete at submit time (the
// cost was already charged to the submitter); async transports complete in
// the caller's future.
func (c *Completion) CompleteAt() time.Duration {
	c.wait()
	return c.completeAt
}

// Settled reports, without blocking, whether the completion has resolved
// and its virtual completion instant has been reached at the given clock
// reading. Drivers poll this to reap async flushes at their due time.
func (c *Completion) Settled(now time.Duration) bool {
	return c.settled() && c.completeAt <= now
}

// Wait blocks until the completion resolves, charges ctx the caller-visible
// stall — the part of the completion's latency not yet covered by virtual
// time that passed since submission — and returns the call's error.
//
// Under an inline transport the crossing already charged the submitting
// context, so Wait charges nothing. Under an async transport a caller that
// waits immediately stalls the full latency (Upcall/Downcall sugar), while
// a caller that produced work in the meantime stalls only the remainder.
//
//decaf:hotpath
func (c *Completion) Wait(ctx *kernel.Context) error {
	c.wait()
	if ctx != nil && c.r != nil {
		c.r.chargeCatchUp(ctx, c.name, c.completeAt)
	}
	return c.err
}

// chargeCatchUp stalls ctx until the waiter's timeline reaches the virtual
// instant target: the portion of target beyond both the clock and the wait
// frontier is charged as sleep, recorded as caller-visible stall, and the
// frontier advances so consecutive waits on the same backlog each pay only
// the increment.
func (r *Runtime) chargeCatchUp(ctx *kernel.Context, name string, target time.Duration) {
	now := r.Kernel.Clock().Now()
	if f := r.waitFrontier(); f > now {
		now = f
	}
	if stall := target - now; stall > 0 {
		ctx.Sleep(stall)
		r.noteStall(name, stall)
		r.advanceWaitFrontier(target)
	}
}

// Admit prepares submissions for transport: it creates missing Completion
// handles, stamps the submit instant, and bumps the submission counters and
// in-flight gauge. Every Transport implementation calls Admit before
// queueing or crossing; a transport must then resolve every admitted
// completion exactly once.
//
//decaf:hotpath
func (r *Runtime) Admit(subs []*Submission) {
	now := r.Kernel.Clock().Now()
	cells := cellCursor{r: r}
	for _, sub := range subs {
		if sub.Completion == nil {
			sub.Completion = newCompletion(r, sub.Call.Name, sub.Call.Up)
		}
		sub.Completion.submitClock = now
		cells.at(sub.Call.Name).submissions.Add(1)
	}
	r.inFlight.Add(int64(len(subs)))
	if rec := r.tracer.Load(); rec != nil {
		rec.Emit(trace.KindSubmit, trace.LaneNone, trace.SrcKernel, 0, uint64(len(subs)))
	}
}

// waitFrontier is the latest virtual instant any waiter has already stalled
// to. Consecutive waits on an async backlog each charge only the additional
// catch-up, not the whole backlog again.
func (r *Runtime) waitFrontier() time.Duration {
	return time.Duration(r.frontier.Load())
}

// WaitFrontier reports the latest virtual instant a waiter has stalled to.
// Harnesses advance the global clock to it after initialization (probe,
// open) so the wall-clock time those waited-for crossings consumed is
// reflected before a measurement phase begins — otherwise an async
// transport's service timeline starts a phase ahead of the clock and the
// gap reads as phantom queue wait.
func (r *Runtime) WaitFrontier() time.Duration { return r.waitFrontier() }

func (r *Runtime) advanceWaitFrontier(t time.Duration) {
	for {
		cur := r.frontier.Load()
		if int64(t) <= cur || r.frontier.CompareAndSwap(cur, int64(t)) {
			return
		}
	}
}
