package xpc

import (
	"fmt"

	"decafdrivers/internal/decaf/registry"
	"decafdrivers/internal/kernel"
)

// Remote call-body outcomes (Frame.Status on a FrameCall completion). The
// low statuses (0-3) are the wire-level protocol statuses shared with
// FrameSubmit acks; these extend them with the dispatch outcomes a handler
// body can produce in the worker process. Defined here — not in the
// unix-only worker file — because the portable completion path maps them
// back onto call results.
const (
	// remoteCallOK: the handler executed in the worker and returned nil.
	remoteCallOK uint32 = 0
	// remoteCallFault: the handler panicked in the worker; the completion's
	// Name carries the panic text. The parent converts it to a *UserFault
	// and makes the containment physical by killing the worker.
	remoteCallFault uint32 = 4
	// remoteCallInjected: the frame carried the Inject flag, so the worker
	// reported an injected fault without executing the body.
	remoteCallInjected uint32 = 5
	// remoteCallFailed: the handler executed and returned a non-nil error;
	// Name carries its text (error identity does not cross the boundary).
	remoteCallFailed uint32 = 6
	// remoteCallSkipped: an earlier handler in the same chunk failed or
	// faulted, so the worker skipped this body — mirroring the kernel
	// side's chunk-abort semantics.
	remoteCallSkipped uint32 = 7
)

// remoteStatusValid reports whether a FrameCall completion status is a
// legitimate dispatch outcome (anything else is a protocol violation).
func remoteStatusValid(s uint32) bool {
	switch s {
	case remoteCallOK, remoteCallFault, remoteCallInjected, remoteCallFailed, remoteCallSkipped:
		return true
	}
	return false
}

// WorkerHandlerFault is the *UserFault cause recorded when a registered
// handler panicked inside the worker process: the worker contained the
// panic, reported it on the wire, and only the panic text crossed back.
type WorkerHandlerFault struct {
	// Call is the handler name that faulted.
	Call string
	// Panic is the worker-side panic value's text.
	Panic string
}

func (f *WorkerHandlerFault) String() string {
	return fmt.Sprintf("worker-side fault in %s: %s", f.Call, f.Panic)
}

// DowncallHandler is a kernel-side function a worker-resident handler may
// invoke through registry.Ctx.Downcall: it runs in the kernel with a scalar
// argument and returns a scalar result — the serialized downcall surface
// process separation forces on nested crossings.
type DowncallHandler func(kctx *kernel.Context, arg uint64) (uint64, error)

// RegisterDowncall installs the kernel-side target for a named downcall.
// Drivers register their downcalls at construction, before any handler that
// names them can cross. Registration is per-Runtime (two driver instances
// never share downcall tables) and last-registration-wins.
func (r *Runtime) RegisterDowncall(name string, fn DowncallHandler) {
	if name == "" || fn == nil {
		panic("xpc: RegisterDowncall needs a name and a function")
	}
	r.downMu.Lock()
	defer r.downMu.Unlock()
	old := r.downcalls.Load()
	next := make(map[string]DowncallHandler, 1)
	if old != nil {
		for k, v := range *old {
			next[k] = v
		}
	}
	next[name] = fn
	r.downcalls.Store(&next)
}

// downcallFn resolves a registered downcall target (nil when absent).
//
//decaf:hotpath
func (r *Runtime) downcallFn(name string) DowncallHandler {
	m := r.downcalls.Load()
	if m == nil {
		return nil
	}
	return (*m)[name]
}

// SharedState returns this runtime's shared state area — the cells
// registered through registry.RegisterCell, instantiated per runtime.
// Heap-backed until a process-separated transport installs an shm backing
// (InstallSharedState); either way, drivers and handlers read and write
// driver state through it with atomic cell operations.
func (r *Runtime) SharedState() *registry.State {
	if st := r.userState.Load(); st != nil {
		return st
	}
	st := registry.NewState()
	if r.userState.CompareAndSwap(nil, st) {
		return st
	}
	return r.userState.Load()
}

// InstallSharedState rebinds the runtime's shared state area onto mem — the
// window of the shm mapping a process-separated transport carved for state
// cells — copying the current cells in so writes made before the transport
// bound are preserved. Idempotent across worker respawns: rebinding the
// same backing is a no-op (the live shm cells must not be clobbered by a
// stale heap copy).
func (r *Runtime) InstallSharedState(mem []byte) error {
	st, err := registry.BindState(mem)
	if err != nil {
		return err
	}
	cur := r.userState.Load()
	if registry.SameBacking(cur, st) {
		return nil
	}
	if cur != nil {
		cur.CopyTo(st)
	}
	r.userState.Store(st)
	return nil
}

// UpcallHandler performs one blocking upcall dispatched through the handler
// table: a single-call Batch flush of UpcallHandler. The handler is resolved
// on the submitting side, so a missing registration fails loudly here
// instead of in the worker.
func (r *Runtime) UpcallHandler(ctx *kernel.Context, name string) error {
	b := Batch{r: r, ctx: ctx}
	return b.UpcallHandler(name).Flush()
}

// UpcallHandlerData is UpcallHandler with an opaque payload, delivered to
// the handler as its Ctx.Data.
func (r *Runtime) UpcallHandlerData(ctx *kernel.Context, name string, data []byte) error {
	b := Batch{r: r, ctx: ctx}
	return b.UpcallHandlerData(name, data).Flush()
}

// handlerData resolves the payload bytes a handler body sees: the staged
// ring slot's bytes when the call carries a valid descriptor (the same
// bytes the worker would read through its own mapping), the copy-path Data
// otherwise.
func (r *Runtime) handlerData(c *Call) []byte {
	if c.Slot.Valid() {
		if ring := r.payloadRing.Load(); ring != nil {
			if buf, err := ring.Buffer(c.Slot); err == nil {
				return buf
			}
		}
	}
	return c.Data
}

// applyRemote maps a worker-served dispatch outcome onto the call's result:
// the body already executed in the worker (the wire trip precedes
// execution) and remoteStatus carries how it went. For executed bodies (ok
// or failed) the handler's modeled cost is charged as decaf CPU and the
// caller sleeps it — the same accounting inline execution produces, so the
// virtual cost model is identical across transports — and the worker-served
// counter ticks on cell. The charge goes to the kernel's CPU accounting, not
// through the one decaf context: every proc submitter resolves its own
// completions, concurrently. Faults convert to contained *UserFaults and
// charge nothing: the body is presumed not to have completed.
//
//decaf:hotpath
func (r *Runtime) applyRemote(ctx *kernel.Context, c *Call, cell *counterCell) error {
	switch c.remoteStatus {
	case remoteCallOK, remoteCallFailed:
		if cost := c.h.Cost; cost > 0 {
			r.Kernel.Accounting().Charge(kernel.CtxProcess, cost)
			ctx.Sleep(cost)
		}
		cell.workerServed.Add(1)
		if c.remoteStatus == remoteCallFailed {
			return fmt.Errorf("xpc: handler %s failed in worker: %s", c.Name, c.remoteErr)
		}
		return nil
	case remoteCallFault:
		cell.workerServed.Add(1)
		return &UserFault{Call: c.Name, Cause: &WorkerHandlerFault{Call: c.Name, Panic: c.remoteErr}}
	case remoteCallInjected:
		return &UserFault{Call: c.Name, Cause: &InjectedFault{Call: c.Name}}
	case remoteCallSkipped:
		// The worker skipped the body because an earlier call in the chunk
		// failed; the kernel-side abort resolves this submission before
		// execute normally runs, so reaching here is defensive.
		return ErrCrossingAborted
	default:
		return fmt.Errorf("xpc: handler %s: worker returned unknown status %d", c.Name, c.remoteStatus)
	}
}

// serveDowncall is the one route a handler body's Ctx.Downcall takes into
// the kernel, whichever dispatcher ran the body: resolve the registered
// target and cross it as a real downcall on the decaf timeline — it IS the
// decaf driver calling down — through the crossing engine directly (the
// proc transport serves a downcall while the body's chunk is mid-flight, so
// it must not re-enter Transport.Submit). The virtual cost is therefore the
// same under every transport. caller says who waits outside that timeline:
//
//   - inline dispatch passes nil: the body is running on the decaf context
//     inside runUser, which charges its own caller the timeline's elapsed;
//   - the proc transport passes the submitting context blocked in the lane
//     conversation: the body ran in the worker, so that context sleeps the
//     crossing's elapsed and the worker-downcall counter ticks;
//   - in ModeNative there is no boundary: the target is a plain function
//     call on caller, the context the body itself runs on.
//
// The downcall rides a pooled call record, like a Batch call, so a nested
// crossing allocates nothing.
//
//decaf:hotpath
func (r *Runtime) serveDowncall(caller *kernel.Context, name string, arg uint64) (uint64, error) {
	fn := r.downcallFn(name)
	if fn == nil {
		return 0, fmt.Errorf("xpc: no downcall registered for %q", name)
	}
	if r.Mode == ModeNative {
		return fn(caller, arg)
	}
	s := r.takeScratch()
	rec := s.spare()
	rec.call = Call{Name: name, down: fn, arg: arg}
	rec.comp = Completion{name: name, r: r}
	s.n, s.submitted = 1, 1
	subs := s.subs[:1:1]
	r.Admit(subs)
	userStart := r.decafCtx.Elapsed()
	err := r.crossSubmissions(r.decafCtx, subs, decafSide)
	if caller != nil {
		if d := r.decafCtx.Elapsed() - userStart; d > 0 {
			caller.Sleep(d)
		}
		r.noteWorkerDowncall(name)
	}
	res := rec.call.res
	r.putScratch(s)
	return res, err
}

// runHandlerNative executes a handler-table call in ModeNative: no
// crossing, no containment, no state relocation — the body runs in the
// caller's kernel context with its cost charged directly, sees the same
// payload bytes an inline dispatch would (handlerData), and its downcalls
// invoke their registered targets as plain function calls.
func (r *Runtime) runHandlerNative(ctx *kernel.Context, c *Call) error {
	ctx.Charge(c.h.Cost)
	return c.h.Fn(c.hctx.Arm(c.h, r.handlerData(c), r.SharedState(), func(name string, arg uint64) (uint64, error) {
		return r.serveDowncall(ctx, name, arg)
	}))
}
