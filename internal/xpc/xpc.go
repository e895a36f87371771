// Package xpc implements Extension Procedure Call, the communication
// substrate of Decaf Drivers (paper §2.3, §3.1): procedure calls between the
// driver nucleus (kernel), the driver library (user-level C), and the decaf
// driver (user-level managed code), providing
//
//   - control transfer with procedure-call semantics,
//   - object transfer via XDR marshaling with field-level masks and object
//     sharing through the object tracker (Share, SyncToUser, SyncToKernel:
//     explicit calls, not part of a crossing), and
//   - synchronization via combolocks (implemented in package kernel).
//
// Decaf always performs XPCs to and from the kernel in C: "An upcall from
// the kernel always invokes C code first, which may then invoke Java code"
// (§3.1). An upcall therefore has two legs — kernel→library (process
// boundary, Microdrivers-style marshaling) and library→decaf (language
// boundary, XDR) — and the runtime reproduces both, including the double
// marshal/unmarshal the paper identifies as its main initialization cost:
// "unmarshaling at user-level in C and re-marshaling in Java" (§4.2).
//
// Control transfer reuses the calling thread, the optimization the paper
// permits when the decaf driver and driver library share a process.
//
// # Transports: submission and completion
//
// The mechanics of a crossing are pluggable through the Transport
// interface, whose API is submit/complete: a Submission pairs a Call with a
// Completion handle carrying the call's result, its crossing cost and the
// fault-containment outcome. Transport.Submit crosses the submissions and
// resolves every completion before it returns. Runtime.Call and CallData
// are sugar — a one-call Batch flush: Submit plus an immediate Wait — so
// the seed call-and-return semantics are a degenerate use of the
// submit/complete API, not a separate path.
//
// Two transports implement the interface:
//
//   - BatchTransport: the §4.2 batching optimization. Submissions coalesce
//     into inline crossings of up to N calls, paying the kernel/user
//     transition (the dominant fixed cost) once per crossing while each
//     call still pays its language-boundary transition and per-byte
//     marshaling. The default is its N = 1 case, named "per-call": every
//     submission is its own inline crossing, completing before Submit
//     returns — the paper's measured configuration. It serves the paper's
//     tables in virtual time.
//   - ProcTransport: the decaf side in a real separate process — the
//     paper's actual deployment shape. Steady-state chunks cross through
//     mmap-shared SPSC descriptor rings organized as independent
//     submission lanes (ProcConfig.Lanes regular lanes plus a contended
//     spill lane, each lane a submit/complete ring pair): a submitter
//     CAS-claims a lane from a lock-free lane table (the claim is
//     affinity-cached on the submitting kernel.Context), encodes
//     xdr.Frames directly into the lane's shared slots, and demuxes
//     completions by the lane's private sequence — concurrent submitters
//     proceed in parallel with no transport mutex and no cross-lane
//     ordering, while the worker serves all lanes in one fair round-robin
//     sweep under a single park/doorbell protocol (see descring.go for
//     the handshake, its memory-ordering invariants and the
//     lane-ownership rules). The lanes are the only data plane: every
//     call, downcall-making bodies included, crosses on them, and a
//     healthy crossing performs zero syscalls and zero heap allocations —
//     the socketpair carries only the worker's layout acknowledgement,
//     separate ones the doorbell byte that wakes a parked peer; the
//     transport mutex guards only the control plane (bind, ring
//     registration, worker lifecycle). A copy-path payload that does not
//     fit a descriptor slot is refused before anything crosses (stage it
//     in a payload ring instead). Payload rings live in
//     the same shared region, resolved through the worker's own mapping;
//     fault containment is physical (a decaf panic kills the worker
//     process, recovery respawns it). Virtual costs match BatchTransport;
//     the real boundary is metered separately (Counters.RingCrossings,
//     DoorbellWakeups, SyscallCrossings, WireBytesOut/In, and the lane
//     gauges LaneAcquisitions/LaneSpills/LaneActivePeak). See proc.go and
//     MaybeRunWorker.
//
// # The handler table: worker-side call bodies
//
// Decaf call bodies are not closures but entries in a process-global handler
// table (internal/decaf/registry, which drivers import directly):
// registry.Handler values installed from init(), each at the next index of a
// dense table.
// registry.Register returns the *Handler a driver keeps as its handle, and
// the kernel side crosses with it — Runtime.Call / CallData and the Batch
// builder's Call / CallData / CallPayload — so a misspelt crossing does not
// compile. The proc transport's worker is a re-exec of the same binary, so
// its init() builds the identical table and a call crosses as its index
// alone: the body executes in the worker's address space, the paper's
// architecture for real. The worker checks the kernel side's registry.Digest
// in the layout header once per epoch, and refuses an epoch whose table
// differs from its own (*LayoutRefusal) before any call crosses. The
// in-process transports dispatch the same Fn inline, so the virtual cost
// model (Handler.Cost, charged kernel-side) is comparable across transports.
//
// A handler sees only its registry.Ctx: the payload bytes, the shared state
// cells (shm-backed under proc, so worker-side writes are immediately
// visible kernel-side), and — for handlers registered Down: true — a
// Downcall hook that crosses back into the kernel. Downcalls are numbered
// too: registry.DeclareDowncall returns the registry.Downcall a body passes
// to Ctx.Downcall, the digest covers that table as well, and each Runtime
// binds its own kernel-side target to each one (Runtime.BindDowncall), in a
// slot read lock-free. Every dispatcher — inline, worker, native — routes
// the hook through one method (Runtime.serveDowncall). Under the proc
// transport a downcall rides the rings of the lane its call was claimed on —
// a FrameDown carrying the downcall's index on the completion ring, served
// by the lane's holder while it waits for the call's completion,
// FrameDownResult back on the submit ring — so a downcall-making body pays
// no mutex and no socket round trip, and no name crosses. The worker runs
// one body at a time: while one waits on a downcall no other lane is served,
// so a downcall target must not wait on a lock that is held across another
// in-flight crossing. A panic inside a handler is a decaf fault like any
// other — contained, surfaced as a *UserFault wrapping *WorkerHandlerFault,
// and under proc fatal to the worker process, with the shm-backed cells
// surviving the respawn. Counters.WorkerServedCalls and WorkerDowncalls
// meter where bodies actually ran.
//
// The table is the only way to cross: a Call is a handler upcall or the
// runtime's own scalar downcall, and no crossing takes a closure. So under
// proc every decaf body executes in the worker, and what a body learns
// comes back as downcall arguments and state cells — no object travels
// with a call.
//
// Hot paths written against the Batch builder are transport-agnostic:
// Batch.Flush waits for its calls under any transport, while
// Batch.FlushAsync returns an aggregate Completion the driver pushes onto a
// FlushPipeline and reaps once it settles.
//
// # Zero-copy payloads
//
// After batching, the remaining data-path tax is copying
// payload bytes across the boundary. A PayloadRing removes it: a pool of
// fixed-size buffers is registered with the transport once at
// initialization (Runtime.RegisterPayloadRing, one crossing), after which
// drivers stage frames with Runtime.AcquirePayload and queue them through
// Batch.CallPayload — the crossing then carries a
// twelve-byte slot descriptor (index, length, generation; see
// xdr.SlotDescriptor) instead of the frame, and the cost model charges
// per-byte copy only on the fallback. Slot lifetime equals completion
// lifetime: drivers release slots when the carrying flush settles. An
// exhausted ring degrades to the full-payload marshal: never a block, never
// a drop, always visible in the ring counters.
//
// Crossing statistics are kept in sharded atomic counters, each entry
// point's per-call count at its index: the fast path of a crossing acquires
// no mutex and hashes no name, and concurrent crossings of different entry
// points never contend (see counters.go). The counters separate
// caller-visible stall from crossing time, and gauge submissions in flight
// and ring occupancy.
package xpc

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"decafdrivers/internal/decaf/registry"
	"decafdrivers/internal/kernel"
	"decafdrivers/internal/objtrack"
	"decafdrivers/internal/trace"
	"decafdrivers/internal/xdr"
)

// Mode selects how a driver instance is deployed.
type Mode int

// Deployment modes.
const (
	// ModeNative runs every driver function in the kernel, the paper's
	// "native" baseline: no crossings, no marshaling.
	ModeNative Mode = iota
	// ModeDecaf splits the driver: nucleus functions stay in the kernel and
	// entry points to user-level functions cross via XPC.
	ModeDecaf
)

func (m Mode) String() string {
	if m == ModeNative {
		return "native"
	}
	return "decaf"
}

// DataPath selects where a driver's per-packet data path executes.
type DataPath int

// Data-path placements.
const (
	// DataPathNucleus keeps the data path in the driver nucleus (the
	// paper's split: transmit and receive are critical roots and never
	// cross). This is the default.
	DataPathNucleus DataPath = iota
	// DataPathDecaf routes each packet through the decaf driver — the
	// configuration whose per-packet crossings §4.2's batching optimization
	// targets. Drivers submit packet batches through Runtime.Batch, so a
	// BatchTransport coalesces the crossings.
	DataPathDecaf
)

// Runtime is the per-driver XPC runtime: one instance backs one loaded
// decaf driver and holds its domains, trackers, codecs and counters. The
// kernel-resident half is the paper's "nuclear runtime"; the user-resident
// half is the "decaf runtime".
type Runtime struct {
	Kernel *kernel.Kernel
	Mode   Mode

	// KernelSpace is the driver nucleus's heap of shared objects.
	KernelSpace *objtrack.AddressSpace
	// LibrarySpace is the driver library's (user C) heap.
	LibrarySpace *objtrack.AddressSpace
	// LibTracker maps kernel pointers to driver-library objects.
	LibTracker *objtrack.Tracker
	// DecafTracker is the user-level object tracker ("JavaOT") mapping
	// driver-library pointers to decaf-driver objects.
	DecafTracker *objtrack.Tracker

	// Masked is the default codec, marshaling only annotated fields.
	Masked *xdr.Codec
	// Full marshals entire structures; selecting it instead of Masked is
	// the D2 ablation (DESIGN.md).
	Full *xdr.Codec
	// UseFullMarshal switches every transfer to the Full codec.
	UseFullMarshal bool
	// DirectTransfer enables the optimization the paper proposes in §4.2:
	// transfer data directly between the driver nucleus and the decaf
	// driver, skipping the unmarshal/re-marshal through the driver library.
	DirectTransfer bool

	// Latency is the crossing cost model.
	Latency LatencyModel

	// DisableIRQs lists interrupt numbers the nuclear runtime masks while
	// the decaf driver executes, so "the driver cannot interrupt itself"
	// (§3.1.3).
	DisableIRQs []int

	decafCtx *kernel.Context
	downCtx  *kernel.Context
	// downHook is serveDowncall with no outside caller, bound once: the
	// downcall route of handler bodies dispatched inline, so arming their
	// context allocates nothing.
	downHook registry.DownFunc

	// scratch pools the call records the Batch builder queues calls on and
	// serveDowncall crosses on (see batch.go).
	scratch [scratchSlots]atomic.Pointer[flushScratch]

	// transport performs crossings; nil selects the default per-call
	// BatchTransport{N: 1}.
	transport Transport

	// counters is the current statistics epoch (sharded atomics; see
	// counters.go). ResetCounters swaps the pointer.
	counters atomic.Pointer[counterState]

	// inFlight gauges submissions admitted and not yet resolved. Unlike the
	// epoch counters it tracks live state, so ResetCounters does not zero it.
	inFlight atomic.Int64

	// payloadRing is the pre-registered zero-copy payload pool, nil until
	// RegisterPayloadRing succeeds (see ring.go).
	payloadRing atomic.Pointer[PayloadRing]

	// faultNotifier, when set, observes every contained decaf-side fault as
	// its Completion resolves — the hook a recovery supervisor attaches to.
	faultNotifier atomic.Pointer[func(FaultEvent)]
	// faultInjector, when set, is consulted at the top of every decaf-side
	// call body; returning true throws an *InjectedFault inside the
	// fault-containment region (test and benchmark fault injection).
	faultInjector atomic.Pointer[func(call string) bool]
	// tracer, when set, is the flight recorder every crossing stage reports
	// to (see internal/trace). Unset, every instrumentation site is one
	// atomic load plus a nil check — the tracing-off state stays
	// allocation-free and ring-free.
	tracer atomic.Pointer[trace.Recorder]

	// userState is this runtime's shared state area (registry cells):
	// heap-backed until a process-separated transport installs an shm
	// backing via InstallSharedState. See SharedState.
	userState atomic.Pointer[registry.State]

	// downcalls holds this runtime's kernel-side target of each declared
	// downcall at its index (BindDowncall), each slot read lock-free.
	downcalls [registry.MaxDowncalls]atomic.Pointer[DowncallHandler]

	// mu guards the shared-object registry only; the crossing fast path
	// never takes it.
	mu     sync.Mutex
	shared []sharedObject
}

type sharedObject struct {
	kernelObj any
	libObj    any
	decafObj  any
}

// NewRuntime creates an XPC runtime for one driver on the given kernel.
func NewRuntime(k *kernel.Kernel, name string, mode Mode, mask xdr.FieldMask) *Runtime {
	r := &Runtime{
		Kernel:       k,
		Mode:         mode,
		KernelSpace:  objtrack.NewAddressSpace(),
		LibrarySpace: objtrack.NewAddressSpace(),
		LibTracker:   objtrack.NewTracker(name + "/library"),
		DecafTracker: objtrack.NewTracker(name + "/decaf"),
		Masked:       &xdr.Codec{Mask: mask},
		Full:         &xdr.Codec{},
		Latency:      DefaultLatencyModel,
		decafCtx:     k.NewContext(name + "/decaf"),
		downCtx:      k.NewContext(name + "/downcall"),
	}
	r.downHook = func(d registry.Downcall, arg uint64) (uint64, error) { return r.serveDowncall(nil, d, arg) }
	return r
}

func (r *Runtime) codec() *xdr.Codec {
	if r.UseFullMarshal {
		return r.Full
	}
	return r.Masked
}

// TypeIDOf derives the object-tracker type identifier for an object: its
// struct type name, standing in for the address of its XDR marshaling
// function (paper §3.1.2).
func TypeIDOf(obj any) objtrack.TypeID {
	t := reflect.TypeOf(obj)
	for t.Kind() == reflect.Ptr {
		t = t.Elem()
	}
	return objtrack.TypeID(t.Name())
}

// Share registers a kernel object and its decaf-driver counterpart with the
// object trackers, allocating the intermediate driver-library copy, and
// returns the kernel pointer. Decaf drivers call this from their custom
// constructors, which "also allocate kernel memory at the same time and
// create an association in the object tracker" (§5.1).
func (r *Runtime) Share(kernelObj, decafObj any) (objtrack.CPtr, error) {
	if reflect.TypeOf(kernelObj) != reflect.TypeOf(decafObj) {
		return 0, fmt.Errorf("xpc: Share of mismatched types %T and %T", kernelObj, decafObj)
	}
	typ := TypeIDOf(kernelObj)
	kptr := r.KernelSpace.Register(kernelObj)
	lib := reflect.New(reflect.TypeOf(kernelObj).Elem()).Interface()
	if err := r.LibTracker.Associate(kptr, typ, lib); err != nil {
		return 0, err
	}
	lptr := r.LibrarySpace.Register(lib)
	if err := r.DecafTracker.Associate(lptr, typ, decafObj); err != nil {
		return 0, err
	}
	r.mu.Lock()
	r.shared = append(r.shared, sharedObject{kernelObj: kernelObj, libObj: lib, decafObj: decafObj})
	r.mu.Unlock()
	return kptr, nil
}

// SharedCount reports the number of live shared objects.
func (r *Runtime) SharedCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.shared)
}

func (r *Runtime) findShared(obj any) (sharedObject, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.shared {
		if s.kernelObj == obj || s.decafObj == obj || s.libObj == obj {
			return s, true
		}
	}
	return sharedObject{}, false
}

// unmarshalInto decodes data over an existing object (in place).
func unmarshalInto(c *xdr.Codec, data []byte, obj any) error {
	holder := reflect.New(reflect.TypeOf(obj))
	holder.Elem().Set(reflect.ValueOf(obj))
	return c.Unmarshal(data, holder.Interface())
}

// marshalBufPool recycles marshal buffers so steady-state crossings stop
// allocating per call (§4.2: marshaling is the recurring cost).
var marshalBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 512)
		return &b
	},
}

// syncLeg marshals src and unmarshals over dst, charging the marshaling CPU
// cost to ctx, and returns the byte count. The intermediate wire buffer comes
// from a pool; nothing decoded retains it.
func (r *Runtime) syncLeg(ctx *kernel.Context, src, dst any) (int, error) {
	c := r.codec()
	bp := marshalBufPool.Get().(*[]byte)
	data, err := c.MarshalAppend((*bp)[:0], src)
	if err != nil {
		marshalBufPool.Put(bp)
		return 0, fmt.Errorf("xpc: marshal %T: %w", src, err)
	}
	n := len(data)
	uerr := unmarshalInto(c, data, dst)
	*bp = data[:0]
	marshalBufPool.Put(bp)
	if uerr != nil {
		return 0, fmt.Errorf("xpc: unmarshal into %T: %w", dst, uerr)
	}
	r.Latency.chargeMarshal(ctx, n)
	return n, nil
}

// SyncToUser propagates a shared object's kernel state to the decaf driver:
// kernel → library → decaf, or directly when DirectTransfer is set.
func (r *Runtime) SyncToUser(ctx *kernel.Context, obj any) error {
	s, ok := r.findShared(obj)
	if !ok {
		return fmt.Errorf("xpc: SyncToUser of unshared %T", obj)
	}
	if r.DirectTransfer {
		n, err := r.syncLeg(ctx, s.kernelObj, s.decafObj)
		r.state().cell(0).addBytes(n, 0)
		return err
	}
	n1, err := r.syncLeg(ctx, s.kernelObj, s.libObj)
	if err != nil {
		return err
	}
	n2, err := r.syncLeg(ctx, s.libObj, s.decafObj)
	r.state().cell(0).addBytes(n1, n2)
	return err
}

// SyncToKernel propagates a shared object's decaf state back to the kernel.
func (r *Runtime) SyncToKernel(ctx *kernel.Context, obj any) error {
	s, ok := r.findShared(obj)
	if !ok {
		return fmt.Errorf("xpc: SyncToKernel of unshared %T", obj)
	}
	if r.DirectTransfer {
		n, err := r.syncLeg(ctx, s.decafObj, s.kernelObj)
		r.state().cell(0).addBytes(n, 0)
		return err
	}
	n2, err := r.syncLeg(ctx, s.decafObj, s.libObj)
	if err != nil {
		return err
	}
	n1, err := r.syncLeg(ctx, s.libObj, s.kernelObj)
	r.state().cell(0).addBytes(n1, n2)
	return err
}

// UserFault describes a fault (panic) in user-level driver code that the
// nuclear runtime contained: the kernel survives, the call fails.
type UserFault struct {
	Call  string
	Cause any
}

func (f *UserFault) Error() string {
	return fmt.Sprintf("xpc: user-level fault in %s: %v", f.Call, f.Cause)
}

// Unwrap exposes the fault's cause when it is itself an error — a
// *WorkerDeath under the process-separated transport — so errors.Is/As see
// through the containment. Panic values that are not errors unwrap to nil.
func (f *UserFault) Unwrap() error {
	if err, ok := f.Cause.(error); ok {
		return err
	}
	return nil
}

// IsUserFault reports whether err is (or wraps) a contained decaf-side
// fault. Drivers under recovery supervision use it to absorb data-path fault
// outcomes — the frames were dropped with accounting and the supervisor owns
// the restart — instead of surfacing them to kernel callers.
func IsUserFault(err error) bool {
	var f *UserFault
	return errors.As(err, &f)
}

// InjectedFault is the panic value the fault injector throws inside the
// fault-containment region: it surfaces as a *UserFault whose Cause is this
// value, indistinguishable from a real decaf-side crash to everything above
// the injector.
type InjectedFault struct {
	// Call is the entry point the fault was injected into.
	Call string
}

func (f *InjectedFault) String() string {
	return fmt.Sprintf("injected fault in %s", f.Call)
}

// SetFaultNotifier installs (or, with nil, removes) the observer invoked for
// every contained decaf-side fault as its Completion resolves. The notifier
// runs on whatever goroutine resolves the completion, inside the faulted
// crossing, so it must only record and defer (a recovery supervisor
// enqueues a work item; it never crosses from the notifier).
func (r *Runtime) SetFaultNotifier(fn func(FaultEvent)) {
	if fn == nil {
		r.faultNotifier.Store(nil)
		return
	}
	r.faultNotifier.Store(&fn)
}

// SetTracer installs (or, with nil, removes) the flight recorder the
// runtime and its transport report crossing-lifecycle events to. Install it
// BEFORE SetTransport: a ProcTransport captures the recorder when it carves
// its worker epoch, attaching the shared-memory trace rings both processes
// append into. The recorder's hot-path cost with tracing on is one ring
// record per event; with no recorder installed every site is a single
// atomic load.
func (r *Runtime) SetTracer(rec *trace.Recorder) {
	if rec == nil {
		r.tracer.Store(nil)
		return
	}
	r.tracer.Store(rec)
}

// Tracer returns the installed flight recorder, or nil when tracing is off.
func (r *Runtime) Tracer() *trace.Recorder { return r.tracer.Load() }

// SetFaultInjector installs (or, with nil, removes) the decaf-side fault
// injector: fn is consulted with the entry-point name at the top of every
// decaf call body, and returning true panics an *InjectedFault inside the
// containment region — the call fails with a *UserFault exactly as a real
// decaf crash would, and the injection is counted (Counters.FaultsInjected).
// fn must be safe for concurrent use (concurrent submitters cross at once).
func (r *Runtime) SetFaultInjector(fn func(call string) bool) {
	if fn == nil {
		r.faultInjector.Store(nil)
		return
	}
	r.faultInjector.Store(&fn)
}

// maskIRQs disables the runtime's listed interrupt lines, so "the driver
// cannot interrupt itself" while its user-level half runs (§3.1.3);
// unmaskIRQs restores them.
func (r *Runtime) maskIRQs() {
	for _, irq := range r.DisableIRQs {
		r.Kernel.DisableIRQ(irq)
	}
}

func (r *Runtime) unmaskIRQs() {
	for _, irq := range r.DisableIRQs {
		r.Kernel.EnableIRQ(irq)
	}
}

// transferData accounts a call's opaque payload. A slot-backed call takes
// the zero-copy fast path: only its twelve-byte descriptor crosses (encoded
// by the codec, resolved against the registered ring on the far side) and
// no per-byte cost scales with the payload. Otherwise the payload bytes
// cross by copy: per-byte marshaling cost with no reflection walk, and
// without DirectTransfer the payload crosses both legs (kernel→library,
// library→decaf) and is charged twice, reproducing the double-marshal.
func (r *Runtime) transferData(ctx *kernel.Context, c *Call, cell *counterCell) {
	if c.Slot.Valid() {
		r.transferSlot(ctx, c, cell)
		return
	}
	if len(c.Data) == 0 {
		return
	}
	n := len(c.Data) + 4 // XDR opaque: payload plus length prefix
	r.Latency.chargeData(ctx, n)
	cell.noteCopied(n)
	if r.DirectTransfer {
		cell.addBytes(n, 0)
		return
	}
	r.Latency.chargeData(ctx, n)
	cell.addBytes(n, n)
}

// transferSlot crosses a slot descriptor instead of payload bytes: what
// travels is the descriptor's twelve wire bytes (index, length, generation;
// the frame codec carries them for real under the proc transport), and the
// far side resolves it against the registered ring. The per-byte charge
// covers the descriptor only — the payload stays in the shared ring, which
// is the point. A descriptor that fails to resolve (stale slot: released
// before its crossing settled) is counted by the ring and transfers nothing.
//
//decaf:hotpath
func (r *Runtime) transferSlot(ctx *kernel.Context, c *Call, cell *counterCell) {
	const n = xdr.SlotDescriptorWireSize
	r.Latency.chargeData(ctx, n)
	cell.addBytes(n, 0)
	if ring := r.payloadRing.Load(); ring != nil {
		if _, err := ring.Buffer(c.Slot); err != nil {
			return
		}
	}
	cell.noteDirect(int(c.Slot.Length))
}

// execute runs a call's body on the far side, charging the far side's
// elapsed time to the caller as wait time. An upcall's handler runs under
// fault containment; a downcall's target runs in the kernel, where a panic
// is a crash. A handler body the worker process already ran (the wire trip
// precedes execution) is not run again: its outcome is applied, counted on
// cell.
func (r *Runtime) execute(ctx *kernel.Context, c *Call, cell *counterCell) error {
	if c.remoteServed {
		return r.applyRemote(ctx, c, cell)
	}
	if c.Up {
		return r.runUser(ctx, c)
	}
	kernelStart := r.downCtx.Elapsed()
	var err error
	c.res, err = c.down(r.downCtx, c.arg)
	if d := r.downCtx.Elapsed() - kernelStart; d > 0 {
		ctx.Sleep(d)
	}
	return err
}

// runUser runs an upcall's registered handler in the decaf context — its
// modeled cost charged there, its Ctx the call's own dispatch context,
// re-armed — converting a panic into a *UserFault (driver isolation) and
// charging the user execution's elapsed time to the caller as wait time.
// An installed fault injector may panic before the body runs — inside the
// containment region, so the injection is exactly a real decaf-side crash.
// (Under a process-separated transport the worker ran the body and
// applyRemote maps its outcome instead.)
func (r *Runtime) runUser(ctx *kernel.Context, c *Call) (err error) {
	userStart := r.decafCtx.Elapsed()
	func() {
		defer func() {
			if p := recover(); p != nil {
				err = &UserFault{Call: c.Name, Cause: p}
			}
		}()
		if ip := r.faultInjector.Load(); ip != nil && (*ip)(c.Name) {
			r.noteInjected(c.id)
			panic(&InjectedFault{Call: c.Name})
		}
		// A free body leaves the decaf context unwritten, so concurrent
		// inline submitters of free handlers do not race on it.
		if cost := c.h.Cost; cost > 0 {
			r.decafCtx.Charge(cost)
		}
		err = c.h.Fn(c.hctx.Arm(c.h, r.handlerData(c), r.SharedState(), r.downHook))
	}()
	if d := r.decafCtx.Elapsed() - userStart; d > 0 {
		ctx.Sleep(d)
	}
	return err
}

// crossSide selects the crossing engine's policy by the side that performs
// the crossing. Both policies execute on the performing context and share
// the engine's batch semantics.
type crossSide bool

const (
	// kernelSide is a transport's crossing on the submitting kernel
	// context: it masks the driver's interrupts for upcalls (the calling
	// kernel thread is inside the driver, §3.1.3) and records the sleep it
	// charged as caller-visible stall.
	kernelSide crossSide = true
	// decafSide is a crossing the decaf side performs on its own timeline:
	// a handler body's nested downcall (serveDowncall). Its stall is not
	// the kernel side's: it rolls into the enclosing upcall's crossing time.
	decafSide crossSide = false
)

// assertMayBlock oopses a crossing attempted from atomic context. The
// message names the call, so it is only built once the assertion has failed.
func assertMayBlock(ctx *kernel.Context, up bool, name string) {
	if ctx.MayBlock() {
		return
	}
	if up {
		ctx.AssertMayBlock("XPC upcall " + name)
	} else {
		ctx.AssertMayBlock("XPC downcall " + name)
	}
}

// chunkEngine is the crossing engine: ONE physical crossing of a chunk of
// submissions, in three parts. begin runs once per chunk: the may-block
// assertion, the IRQ mask and the trip's count and charge — the kernel/user
// transition is paid once for the whole chunk. step runs once per call, in
// chunk order: the call's language-boundary and per-byte payload cost, its
// execution (or, for a body the worker ran, its outcome applied), its mark
// and its resolve, with the batch semantics — after the first failure every
// later call resolves ErrCrossingAborted without executing. end runs once
// per chunk: unmask and the stall note.
//
// Every crossing drives it. crossSubmissions runs the three parts back to
// back for an inline chunk and for serveDowncall's downcall; the proc
// transport's lane conversation steps each call as soon as its completion is
// validated, so the kernel's bookkeeping for one call overlaps the worker's
// service of the calls behind it. An engine lives on its submitter's stack.
type chunkEngine struct {
	r    *Runtime
	ctx  *kernel.Context
	side crossSide

	// first is the chunk's first call, under whose entry point its trip and
	// stall count.
	first  *Call
	begun  bool
	masked bool
	// base is ctx's elapsed time at begin plus the downcall windows landed
	// since, busy its busy time at begin: a call's mark is its elapsed time
	// past base, and prev is the mark of the call stepped last.
	base, busy, prev time.Duration
	// n counts the calls stepped; err is the first failure.
	n   int
	err error
}

// engine returns a crossing engine for one chunk on ctx.
//
//decaf:hotpath
func (r *Runtime) engine(ctx *kernel.Context, side crossSide) chunkEngine {
	return chunkEngine{r: r, ctx: ctx, side: side}
}

// begin opens the crossing of subs, none of which is resolved yet.
//
//decaf:hotpath
func (e *chunkEngine) begin(subs []*Submission) {
	r, ctx := e.r, e.ctx
	e.first = subs[0].Call
	up := e.first.Up
	assertMayBlock(ctx, up, e.first.Name)
	if up && e.side == kernelSide && len(r.DisableIRQs) > 0 {
		r.maskIRQs()
		e.masked = true
	}
	e.begun = true
	e.base, e.busy = ctx.Elapsed(), ctx.Busy()
	r.countCrossing(subs)
	if len(subs) == 1 {
		r.Latency.chargeTrip(ctx)
	} else {
		r.Latency.chargeBatchTrip(ctx, len(subs))
	}
}

// step crosses the chunk's next call and resolves it with its share of the
// crossing cost: the elapsed time since the previous call's mark. Resolving
// hands the submission back, so nothing reads it afterwards.
//
//decaf:hotpath
func (e *chunkEngine) step(sub *Submission) {
	e.n++
	cell := e.r.state().cell(sub.Call.id)
	if e.err != nil {
		sub.Completion.resolveOn(cell, ErrCrossingAborted, false, 0)
		return
	}
	e.r.transferData(e.ctx, sub.Call, cell)
	err := e.r.execute(e.ctx, sub.Call, cell)
	mark := e.ctx.Elapsed() - e.base
	cost := mark - e.prev
	e.prev, e.err = mark, err
	_, fault := err.(*UserFault)
	sub.Completion.resolveOn(cell, err, fault, cost)
}

// lift opens a window in the crossing for a downcall the proc transport
// serves while the chunk is in flight: the driver's IRQs are unmasked for
// its target, as they are when no chunk is open. It returns ctx's elapsed
// time, which land takes back.
//
//decaf:hotpath
func (e *chunkEngine) lift() time.Duration {
	if e.masked {
		e.r.unmaskIRQs()
	}
	return e.ctx.Elapsed()
}

// land closes lift's window: the IRQs are masked again and the time ctx
// slept for the downcall stays out of the marks and the stall, which count
// only the chunk's own crossing. (Before begin, begin's base supersedes
// it.)
//
//decaf:hotpath
func (e *chunkEngine) land(since time.Duration) {
	if e.masked {
		e.r.maskIRQs()
	}
	e.base += e.ctx.Elapsed() - since
}

// end closes the crossing and returns its first error.
//
//decaf:hotpath
func (e *chunkEngine) end() error {
	if e.masked {
		e.r.unmaskIRQs()
		e.masked = false
	}
	if e.begun && e.side == kernelSide {
		// The sleep portion of what this crossing charged the submitting
		// context is the caller-visible stall; record it so benchmarks can
		// compare transports.
		if slept := e.ctx.Elapsed() - e.base - (e.ctx.Busy() - e.busy); slept > 0 {
			e.r.state().cell(e.first.id).stallNs.Add(uint64(slept))
		}
	}
	return e.err
}

// fail resolves the calls a failed wire crossing left unresolved, rest,
// and ends the chunk. The first takes cause — contained in a *UserFault
// when contain is set, the outcome of a dead or suspect worker — unless an
// earlier call already failed; every other one aborts.
func (e *chunkEngine) fail(rest []*Submission, cause error, contain bool) error {
	for _, sub := range rest {
		cell := e.r.state().cell(sub.Call.id)
		if e.err != nil {
			sub.Completion.resolveOn(cell, ErrCrossingAborted, false, 0)
			continue
		}
		e.err = cause
		if contain {
			e.err = &UserFault{Call: sub.Call.Name, Cause: cause}
		}
		sub.Completion.resolveOn(cell, e.err, contain, 0)
	}
	return e.end()
}

// crossSubmissions performs ONE physical crossing delivering every
// submission — a BatchTransport chunk of handler upcalls, or the one
// downcall serveDowncall crosses — as the engine's begin, one step per
// call, and end. Every submission's Completion resolves before it returns,
// each as soon as its own call has crossed; by the Transport rule nothing
// here looks at one again. It returns the first error.
//
//decaf:hotpath
func (r *Runtime) crossSubmissions(ctx *kernel.Context, subs []*Submission, side crossSide) error {
	if len(subs) == 0 {
		return nil
	}
	e := r.engine(ctx, side)
	e.begin(subs)
	for _, sub := range subs {
		e.step(sub)
	}
	return e.end()
}
