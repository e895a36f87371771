package xpc

import (
	"errors"
	"fmt"
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
	// ErrTransportClosed rejects submissions through a ProcTransport after
	// Close.
	ErrTransportClosed = errors.New("xpc: transport closed")
	// ErrTransportBound rejects a Submit through a ProcTransport already
	// serving a different runtime (the worker process, its lanes and the
	// shared state cells are per-runtime state).
	ErrTransportBound = errors.New("xpc: transport already bound to another runtime")
)

// Submission is one crossing request in flight through a Transport: the Call
// to deliver plus the Completion handle the caller observes it through.
// Transports resolve every admitted submission's Completion exactly once —
// with the call's result, or with a transport/abort error if it never ran.
type Submission struct {
	// Call is the crossing request.
	Call *Call
	// Completion is the observable outcome, bound to its runtime by
	// Runtime.NewSubmission (or by the pooled record a call rides).
	Completion *Completion
}

// NewSubmission wraps a call with a fresh Completion handle bound to this
// runtime. The Batch builder and the runtime's downcalls do not come
// through here: their calls ride pooled records (see callRecord).
func (r *Runtime) NewSubmission(c *Call) *Submission {
	return &Submission{Call: c, Completion: &Completion{name: c.Name, up: c.Up, id: c.id, r: r}}
}

// refuseProbes fails a whole Submit that holds an isolation probe (a Call
// with no handler) before any body runs: every submission resolves with an
// error naming the probe, not a fault — nothing crossed.
//
//decaf:hotpath
func refuseProbes(subs []*Submission) error {
	for _, sub := range subs {
		if sub.Call.h == nil {
			err := fmt.Errorf("xpc: %q has no registered handler: only ProcTransport.CrossChunk carries such a call", sub.Call.Name)
			for _, s := range subs {
				s.Completion.resolve(err, false, 0)
			}
			return err
		}
	}
	return nil
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
}

// Completion is the handle for one submitted crossing. It resolves exactly
// once, carrying the call's result (error or contained fault) and its share
// of the crossing's virtual cost. All accessors except Done and Settled
// block until the completion resolves.
//
// Every transport charges the crossing to the submitting context and
// resolves the completion before Submit returns, so a waiter is never
// behind the instant its completion resolved at and waiting charges nothing.
type Completion struct {
	name string
	up   bool
	id   uint32 // the call's Call.id: where it counts
	r    *Runtime

	// ch is the whole settle state in one word: nil while unresolved with
	// nobody blocked, a waiter-installed channel while unresolved with
	// somebody blocked (or holding Done's channel), settledCh once resolved.
	// A transport resolves before Submit returns, so on that path no channel
	// ever exists and every accessor is one atomic load.
	ch atomic.Pointer[chan struct{}]

	// Resolved fields, written exactly once before ch becomes settledCh and
	// immutable after; that swap publishes them.
	err       error
	fault     bool
	crossCost time.Duration
}

// settledCh is the value of Completion.ch once resolved: a channel closed
// for good, so Done on a settled completion still hands back something a
// select can fall through.
var settledCh = func() *chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return &ch
}()

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

// resolve publishes the outcome; crossCost is this call's share of the
// crossing. A fault outcome is additionally delivered to the runtime's
// fault notifier after the completion settles, from values read before it
// did: once settled, the completion may be a pooled record's and already
// recycled.
//
//decaf:hotpath
func (c *Completion) resolve(err error, fault bool, crossCost time.Duration) {
	c.resolveOn(nil, err, fault, crossCost)
}

// resolveOn is resolve for a caller that already holds the counter cell of
// the completion's entry point (nil: look it up).
//
//decaf:hotpath
func (c *Completion) resolveOn(cell *counterCell, err error, fault bool, crossCost time.Duration) {
	r, ev := c.r, FaultEvent{Call: c.name, Up: c.up, Err: err}
	c.err = err
	c.fault = fault
	c.crossCost = crossCost
	if r != nil {
		if cell == nil {
			cell = r.state().cell(c.id)
		}
		r.noteCompletion(cell, c, crossCost, fault)
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
// submission order (after any error the aggregate started from), any fault
// and the combined crossing cost.
func (c *Completion) fold(child *Completion) {
	if c.err == nil {
		c.err = child.err
	}
	c.fault = c.fault || child.fault
	c.crossCost += child.crossCost
}

// Settled reports, without blocking, whether the completion has resolved.
// Drivers poll this to reap flushes without waiting on them.
//
//decaf:hotpath
func (c *Completion) Settled() bool { return c.ch.Load() == settledCh }

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
	if !c.Settled() {
		<-c.Done()
	}
}

// Wait blocks until the completion resolves and returns the call's error.
// The crossing already charged its cost to the submitting context, so the
// waiting context ctx is charged nothing.
//
//decaf:hotpath
func (c *Completion) Wait(ctx *kernel.Context) error {
	c.wait()
	return c.err
}

// Admit prepares submissions for transport: it bumps the submission
// counters and in-flight gauge. Every Transport implementation calls Admit
// before queueing or crossing; a transport must then resolve every
// admitted completion exactly once.
//
//decaf:hotpath
func (r *Runtime) Admit(subs []*Submission) {
	s := r.state()
	for _, sub := range subs {
		s.cell(sub.Call.id).submissions.Add(1)
	}
	r.inFlight.Add(int64(len(subs)))
	if rec := r.tracer.Load(); rec != nil {
		rec.Emit(trace.KindSubmit, trace.LaneNone, trace.SrcKernel, 0, uint64(len(subs)))
	}
}
