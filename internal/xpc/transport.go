package xpc

import (
	"fmt"

	"decafdrivers/internal/decaf/registry"
	"decafdrivers/internal/kernel"
	"decafdrivers/internal/xdr"
)

// Call is one crossing request: a named entry point, the direction it
// crosses in, the function to run on the far side, the shared objects whose
// state travels with it, and an optional opaque payload (packet data) that
// is transferred directly (§4.2) without reflection-driven marshaling.
type Call struct {
	// Name is the entry point, used for per-call statistics.
	Name string
	// Up is true for kernel→user calls (upcalls), false for downcalls.
	Up bool
	// Fn runs on the far side of the crossing.
	Fn func(ctx *kernel.Context) error
	// Objs are shared objects synchronized before and after Fn.
	Objs []any
	// Data is an opaque payload carried with the call. It pays per-byte
	// marshaling cost but no reflection walk. The slice is aliased, not
	// copied: it belongs to the batch from queueing until the call's
	// Completion resolves (see Batch.UpcallHandlerData for the ownership
	// rule).
	Data []byte
	// Slot references a payload staged in the runtime's registered
	// PayloadRing: the zero-copy fast path. When valid, only the
	// twelve-byte descriptor crosses and Data is not consulted; the zero
	// value selects the Data copy path.
	Slot xdr.SlotDescriptor

	// h, when non-nil, marks a handler-table call: the body is the
	// registered handler looked up by Name (Fn is nil), dispatchable in the
	// worker process under a process-separated transport and inline
	// elsewhere. Resolved at call creation (Batch.UpcallHandler and
	// friends).
	h *registry.Handler

	// remoteServed and friends record a worker-side dispatch outcome: the
	// wire layer sets them when the worker executed (or skipped) the body,
	// and execute consumes them instead of running the handler again.
	// remoteErr carries the worker's error or panic text.
	remoteServed bool
	remoteStatus uint32
	remoteErr    string

	// hctx is the context an inline-dispatched handler body sees, re-armed
	// for each dispatch of this call (the in-process twin of the one Ctx the
	// worker's serve loop re-arms), so dispatching allocates nothing.
	hctx registry.Ctx
}

// Transport moves submissions across the user/kernel boundary on behalf of a
// Runtime. The API is submission/completion: Submit hands over a slice of
// submissions and returns once they are accepted; each submission's
// Completion resolves — immediately for inline transports, later for
// asynchronous ones — with the call's result, latency split and
// fault-containment outcome. Drain blocks until every accepted submission
// has completed.
//
// The transport owns the policy of how submissions map onto physical
// crossings (one per call, coalesced batches, a queue serviced by a
// dedicated goroutine) and which execution timeline pays the crossing cost.
// The mechanics of a crossing (object synchronization, fault containment,
// accounting) live on the Runtime.
//
// Ownership: a submission is the transport's from Submit until the
// transport resolves its Completion, and not an instant longer. A transport
// must not touch a Submission, its Call or its Completion after resolving
// that completion, nor the subs slice after resolving the last completion
// in it: the submitter may be blocked in Wait on another goroutine, and the
// moment its last completion settles it recycles the call records (and the
// slice) for its next flush. Whatever a transport needs past that point —
// a name for a counter, the completion instant its timeline advances to —
// it reads before resolving.
type Transport interface {
	// Name identifies the transport in benchmark output.
	Name() string
	// MaxBatch is the largest number of calls one crossing may coalesce;
	// 1 for the per-call transport. Batch builders auto-flush at this size.
	MaxBatch() int
	// Submit accepts the submissions for crossing. Every submission's
	// Completion is guaranteed to resolve exactly once, even on failure
	// paths (queue full, transport closed, aborted flush). The returned
	// error is the first synchronously-known failure: inline transports
	// report the first call error, asynchronous ones only admission
	// failures — later errors surface through the Completions.
	Submit(r *Runtime, ctx *kernel.Context, subs []*Submission) error
	// Drain blocks until every submission accepted so far has completed,
	// charging ctx any catch-up stall. Inline transports complete within
	// Submit, so their Drain is a no-op.
	Drain(r *Runtime, ctx *kernel.Context) error
}

// DefaultBatchSize is the batch size a zero-valued BatchTransport uses.
const DefaultBatchSize = 16

// BatchTransport coalesces up to N submissions into one inline crossing: the
// kernel/user transition (LatencyModel.KernelUserBase) is paid once per
// crossing, while each call still pays its language-boundary transition and
// per-byte marshaling. This is the §4.2 batching optimization: for a ring of
// packets, crossings per packet drop from ~1 to ~1/N. Completions resolve
// before Submit returns; the submitting context pays the crossing cost.
//
// N = 1 is the seed behavior and the default transport ("per-call", the
// paper's measured configuration): every submission is its own crossing,
// executed inline on the submitting context, which pays the full kernel/user
// transition and both marshaling legs before Submit returns.
type BatchTransport struct {
	// N is the maximum calls per crossing; <1 means DefaultBatchSize.
	N int
}

func (t BatchTransport) size() int {
	if t.N < 1 {
		return DefaultBatchSize
	}
	return t.N
}

// Name implements Transport.
func (t BatchTransport) Name() string {
	if t.size() == 1 {
		return "per-call"
	}
	return fmt.Sprintf("batched(%d)", t.size())
}

// MaxBatch implements Transport.
func (t BatchTransport) MaxBatch() int { return t.size() }

// Submit implements Transport by splitting the submissions into chunks of at
// most N and performing one inline crossing per chunk. A failing chunk stops
// the remaining chunks, whose submissions resolve with ErrCrossingAborted.
func (t BatchTransport) Submit(r *Runtime, ctx *kernel.Context, subs []*Submission) error {
	r.Admit(subs)
	return r.crossChunked(ctx, subs, t.size(), inlineCrossOptions)
}

// crossChunked performs inline crossings over already-admitted submissions
// in chunks of at most n, aborting the remaining chunks (ErrCrossingAborted)
// after the first failure and returning it. Shared by BatchTransport and
// the async transport's decaf-side inline path.
func (r *Runtime) crossChunked(ctx *kernel.Context, subs []*Submission, n int, opt crossOptions) error {
	var first error
	for len(subs) > 0 {
		chunk := subs
		if len(chunk) > n {
			chunk = subs[:n]
		}
		subs = subs[len(chunk):]
		if first != nil {
			for _, sub := range chunk {
				sub.Completion.resolve(ErrCrossingAborted, false, 0)
			}
			continue
		}
		if _, err := r.crossSubmissions(ctx, chunk, opt); err != nil {
			first = err
		}
	}
	return first
}

// Drain implements Transport: inline crossings complete within Submit.
func (BatchTransport) Drain(*Runtime, *kernel.Context) error { return nil }

// WorkerDeath is the fault cause recorded when a process-separated
// transport's decaf worker process died under a crossing: SIGKILLed,
// crashed, or unreachable over the wire. It surfaces wrapped in a
// *UserFault, so IsUserFault holds and recovery supervision treats it
// exactly like an in-process decaf crash.
type WorkerDeath struct {
	// PID is the dead worker's process id.
	PID int
	// Err is the wire-level failure that exposed the death.
	Err error
}

func (d *WorkerDeath) Error() string {
	return fmt.Sprintf("xpc: decaf worker process %d died: %v", d.PID, d.Err)
}

func (d *WorkerDeath) Unwrap() error { return d.Err }

// WorkerRespawner is a transport whose decaf side is an external process a
// recovery supervisor must respawn during driver restart, before the
// journal replay crosses again (ProcTransport implements it).
type WorkerRespawner interface {
	RespawnWorker() error
}

// perCallTransport is the default transport, boxed once.
var perCallTransport Transport = BatchTransport{N: 1}

// Transport returns the runtime's crossing transport (the per-call
// BatchTransport{N: 1} when none was selected).
func (r *Runtime) Transport() Transport {
	if r.transport == nil {
		return perCallTransport
	}
	return r.transport
}

// SetTransport selects the crossing transport; nil restores the default
// per-call transport. A previously installed transport that owns
// resources (AsyncTransport's service goroutine) is closed. Swap transports
// only while the driver is quiescent.
func (r *Runtime) SetTransport(t Transport) {
	if old := r.transport; old != nil && old != t {
		if c, ok := old.(interface{ Close() error }); ok {
			_ = c.Close()
		}
	}
	r.transport = t
}

// DrainCrossings blocks until every submission accepted by the current
// transport has completed, charging ctx any catch-up stall.
func (r *Runtime) DrainCrossings(ctx *kernel.Context) error {
	return r.Transport().Drain(r, ctx)
}
