package xpc

import (
	"errors"
	"fmt"
	"time"

	"decafdrivers/internal/trace"
)

// Submission errors. Completions resolved on a failure path carry one of
// these (or the call's own error) so the submitter always learns the outcome.
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
// once, carrying the call's result (error or contained fault); its share of
// the crossing's virtual cost and whether it faulted go to the counters and
// the fault notifier as it resolves.
//
// Every transport resolves the completion before Submit returns, on the
// submitting goroutine or before Submit's return is ordered after it, and
// charges the crossing to the submitting context. So a completion is only
// ever read settled: reading one that is not is a transport bug, and panics.
type Completion struct {
	name string
	up   bool
	id   uint32 // the call's Call.id: where it counts
	r    *Runtime

	// Resolved fields, written exactly once by resolveOn.
	settled bool
	err     error
}

// resolve publishes the outcome and counts it: crossCost is this call's
// share of the crossing, and a fault outcome is additionally delivered to
// the runtime's fault notifier once the completion settles.
//
//decaf:hotpath
func (c *Completion) resolve(err error, fault bool, crossCost time.Duration) {
	c.resolveOn(nil, err, fault, crossCost)
}

// resolveOn is resolve for a caller that already holds the counter cell of
// the completion's entry point (nil: look it up). A second resolve panics:
// exactly once is the Transport contract, and a transport that breaks it is
// a bug.
//
//decaf:hotpath
func (c *Completion) resolveOn(cell *counterCell, err error, fault bool, crossCost time.Duration) {
	if c.settled {
		panic("xpc: completion resolved twice")
	}
	c.settled, c.err = true, err
	r := c.r
	if r == nil {
		return
	}
	if cell == nil {
		cell = r.state().cell(c.id)
	}
	r.noteCompletion(cell, c, crossCost, fault)
	r.inFlight.Add(-1)
	if fault {
		if fp := r.faultNotifier.Load(); fp != nil {
			(*fp)(FaultEvent{Call: c.name, Up: c.up, Err: err})
		}
	}
}

// outcome returns the resolved call's error. The transport resolved the
// completion before Submit returned, so one still unresolved here is a
// broken Transport contract, not something to wait for.
//
//decaf:hotpath
func (c *Completion) outcome() error {
	if !c.settled {
		panic("xpc: completion read before its transport resolved it")
	}
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
