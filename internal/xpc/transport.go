package xpc

import (
	"fmt"

	"decafdrivers/internal/decaf/registry"
	"decafdrivers/internal/kernel"
	"decafdrivers/internal/xdr"
)

// Call is one crossing request: an entry point, the direction it crosses
// in, and an optional opaque payload (packet data) that is transferred
// directly (§4.2) without reflection-driven marshaling. A call is either an
// upcall to a registered handler (Batch.Call and friends) or the runtime's
// own scalar downcall, which a handler body's
// Ctx.Downcall issues (serveDowncall). A Call built outside this package
// carries neither: it is an isolation probe, which ProcTransport.CrossChunk
// carries across for its payload proof and Submit refuses.
type Call struct {
	// Name is the entry point, carried for errors and fault events: calls
	// count under id, not under their name.
	Name string
	// Up is true for kernel→user calls (upcalls), false for downcalls.
	Up bool
	// Data is an opaque payload carried with the call. It pays per-byte
	// marshaling cost but no reflection walk. The slice is aliased, not
	// copied: it belongs to the batch from queueing until the call's
	// Completion resolves (see Batch.CallData for the ownership rule).
	Data []byte
	// Slot references a payload staged in the runtime's registered
	// PayloadRing: the zero-copy fast path. When valid, only the
	// twelve-byte descriptor crosses and Data is not consulted; the zero
	// value selects the Data copy path.
	Slot xdr.SlotDescriptor

	// h marks an upcall: the body is the registered handler, dispatched in
	// the worker process under a process-separated transport and inline
	// elsewhere. Resolved through its handle when the call is queued.
	h *registry.Handler
	// id is the entry point's index — h's table index for an upcall, the
	// registry.Downcall for a downcall, 0 for a probe — which picks the
	// call's counter cell and per-call count.
	id uint32

	// down marks a downcall: the kernel-side target serveDowncall resolved,
	// run with arg; res holds its scalar result once the call executed.
	down DowncallHandler
	arg  uint64
	res  uint64

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
// submissions, and each submission's Completion resolves with the call's
// result and fault-containment outcome, its share of the crossing cost
// counted as it does. Both transports resolve every completion before
// Submit returns, and the submitting context pays the crossing cost.
// Within a chunk, completions resolve one at a time in chunk order, each as
// soon as the crossing engine has stepped its call (see chunkEngine): under
// ProcTransport that is when the worker's completion for it has been
// validated, while later calls of the chunk are still in the worker.
//
// The transport owns the policy of how submissions map onto physical
// crossings (one per call, coalesced batches, chunks sent to a worker
// process). The mechanics of a crossing (payload transfer, fault
// containment, accounting) live on the Runtime.
//
// Ownership: a submission is the transport's from Submit until Submit
// returns, and not an instant longer. Every completion is resolved by then,
// and the submitter reads the outcomes and recycles the call records (and
// the subs slice) for its next flush at once, so nothing a transport keeps
// may reach a Submission, its Call or its Completion afterwards.
type Transport interface {
	// Name identifies the transport in benchmark output.
	Name() string
	// MaxBatch is the largest number of calls one crossing may coalesce;
	// 1 for the per-call transport. Batch builders auto-flush at this size.
	MaxBatch() int
	// Submit accepts the submissions for crossing. Every submission's
	// Completion is guaranteed to resolve exactly once, even on failure
	// paths (transport closed or bound elsewhere, aborted flush). The
	// returned error is the first failure.
	Submit(r *Runtime, ctx *kernel.Context, subs []*Submission) error
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
	if err := refuseProbes(subs); err != nil {
		return err
	}
	n := t.size()
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
		if err := r.crossSubmissions(ctx, chunk, kernelSide); err != nil {
			first = err
		}
	}
	return first
}

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

// LayoutRefusal is the error of a worker epoch whose fresh worker refused
// the shared region's layout header instead of acknowledging it. Reason is
// the worker's own account of the field it rejected. The epoch is retired
// like a death.
type LayoutRefusal struct {
	// PID is the refusing worker's process id.
	PID int
	// Reason is the worker's rejection text.
	Reason string
}

func (e *LayoutRefusal) Error() string {
	return fmt.Sprintf("xpc: decaf worker process %d refused the shared-region layout: %s", e.PID, e.Reason)
}

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
// resources (ProcTransport's worker process) is closed. Swap transports
// only while the driver is quiescent.
func (r *Runtime) SetTransport(t Transport) {
	if old := r.transport; old != nil && old != t {
		if c, ok := old.(interface{ Close() error }); ok {
			_ = c.Close()
		}
	}
	r.transport = t
}
