// Package xpc implements Extension Procedure Call, the communication
// substrate of Decaf Drivers (paper §2.3, §3.1): procedure calls between the
// driver nucleus (kernel), the driver library (user-level C), and the decaf
// driver (user-level managed code), providing
//
//   - control transfer with procedure-call semantics,
//   - object transfer via XDR marshaling with field-level masks,
//   - object sharing through the object tracker, and
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
// interface, whose API is asynchronous submit/complete: a Submission pairs
// a Call with a Completion handle carrying the call's result, its latency
// split into queue wait and crossing cost, its virtual completion instant,
// and the fault-containment outcome. Transport.Submit accepts submissions;
// Transport.Drain blocks until everything accepted has completed.
// Runtime.Upcall and Runtime.Downcall are sugar — a one-call Batch flush:
// Submit plus an immediate Wait — so the seed call-and-return semantics are
// a degenerate use of the asynchronous API, not a separate path.
//
// Three transports implement the interface:
//
//   - BatchTransport: the §4.2 batching optimization. Submissions coalesce
//     into inline crossings of up to N calls, paying the kernel/user
//     transition (the dominant fixed cost) once per crossing while each
//     call still pays its language-boundary transition and per-byte
//     marshaling. The default is its N = 1 case, named "per-call": every
//     submission is its own inline crossing, completing before Submit
//     returns — the paper's measured configuration.
//   - AsyncTransport: the §4.2 asynchrony. Submissions enqueue onto a
//     bounded ring serviced by a dedicated decaf-side goroutine with its
//     own execution timeline; the kernel side submits and continues.
//     Completions resolve at definite virtual instants on that timeline,
//     so a caller that keeps producing hides the crossing latency and only
//     a caller that waits early pays it (Completion.Wait charges exactly
//     the un-overlapped remainder). A full ring applies a configurable
//     backpressure policy (block or fail fast), and ordered FIFO
//     completion holds per direction.
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
//     the socketpair carries only handshake and lifecycle control frames,
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
// table (internal/decaf/registry, re-exported by internal/decaf): named
// registry.Handler values installed from init(), dispatched by call name.
// Runtime.UpcallHandler / UpcallHandlerData and the Batch builder's
// UpcallHandler / UpcallHandlerData / UpcallHandlerPayload submit handler
// calls; because the proc transport's worker is a re-exec of the same
// binary, the worker's init() builds the identical table, so under
// ProcTransport the body executes in the worker's address space — the
// paper's architecture for real. The in-process transports dispatch the
// same Fn inline, so the virtual cost model (Handler.Cost, charged
// kernel-side) is comparable across all transports.
//
// A handler sees only its registry.Ctx: the payload bytes, the shared state
// cells (shm-backed under proc, so worker-side writes are immediately
// visible kernel-side), and — for handlers registered Down: true — a
// Downcall hook that crosses back into the kernel, where per-Runtime
// targets installed with Runtime.RegisterDowncall run with full kernel
// access. Every dispatcher — inline, worker, native — routes that hook
// through one method (Runtime.serveDowncall). Under the proc transport a
// downcall rides the rings of the lane its call was claimed on — FrameDown
// on the completion ring, served by the lane's holder while it waits for
// the call's completion, FrameDownResult back on the submit ring — so a
// downcall-making body pays no mutex and no socket round trip. The worker
// runs one body at a time: while one waits on a downcall no other lane is
// served, so a downcall target must not wait on a lock that is held across
// another in-flight crossing.
// A panic inside a handler is a decaf fault like any other — contained,
// surfaced as a *UserFault wrapping *WorkerHandlerFault, and under proc
// fatal to the worker process, with the shm-backed cells surviving the
// respawn. Counters.WorkerServedCalls and WorkerDowncalls meter where
// bodies actually ran.
//
// Closure-based Upcall/Downcall remain for the drivers not yet converted
// (e1000, ens1371 and uhcihcd still run probe/open/close as closures, which
// execute in the kernel process under every transport — only their
// data-path handlers run in the worker); psmouse and rtl8139 cross through
// the table only, so under proc every one of their decaf bodies executes in
// the worker. Closures carry no payload: the payload builders are
// handler-only.
//
// Hot paths written against the Batch builder are transport-agnostic:
// Batch.Flush waits for its calls under any transport, while
// Batch.FlushAsync returns an aggregate Completion the driver can pipeline
// against, overlapping packet production with crossing execution.
//
// # Zero-copy payloads
//
// After batching and asynchrony, the remaining data-path tax is copying
// payload bytes across the boundary. A PayloadRing removes it: a pool of
// fixed-size buffers is registered with the transport once at
// initialization (Runtime.RegisterPayloadRing, one crossing), after which
// drivers stage frames with Runtime.AcquirePayload and queue them through
// Batch.UpcallHandlerPayload — the crossing then carries a
// twelve-byte slot descriptor (index, length, generation; see
// xdr.SlotDescriptor) instead of the frame, and the cost model charges
// per-byte copy only on the fallback. Slot lifetime equals completion
// lifetime: drivers release slots when the carrying flush settles, so
// inline and async transports both recycle correctly. An exhausted ring
// degrades to the full-payload marshal: never a block, never a drop, always
// visible in the ring counters.
//
// Crossing statistics are kept in sharded atomic counters: the fast path of
// a crossing acquires no mutex, so concurrent crossings of different entry
// points never contend (see counters.go). The counters separate
// caller-visible stall from queue wait and decaf-side crossing time, and
// gauge submissions in flight and ring occupancy.
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

func (p DataPath) String() string {
	if p == DataPathDecaf {
		return "decaf"
	}
	return "nucleus"
}

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
	downHook func(name string, arg uint64) (uint64, error)

	// scratch pools the call records the Batch builder and the blocking
	// sugar queue calls on (see batch.go).
	scratch [scratchSlots]atomic.Pointer[flushScratch]

	// transport performs crossings; nil selects the default per-call
	// BatchTransport{N: 1}.
	transport Transport

	// counters is the current statistics epoch (sharded atomics; see
	// counters.go). ResetCounters swaps the pointer.
	counters atomic.Pointer[counterState]

	// Submission gauges. Unlike the epoch counters these track live state
	// (submissions in flight, async ring occupancy), so ResetCounters does
	// not zero them.
	inFlight  atomic.Int64
	queueLen  atomic.Int64
	queuePeak atomic.Int64

	// frontier is the latest virtual instant any waiter has stalled to
	// (see Completion.Wait).
	frontier atomic.Int64

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
	// completionObserver, when set, observes every resolved submission's
	// latency split — the hook the benchmark harness uses to build
	// caller-visible latency histograms without touching the crossing path
	// when unset.
	completionObserver atomic.Pointer[func(name string, queueWait, crossCost time.Duration, fault bool)]
	// tracer, when set, is the flight recorder every crossing stage reports
	// to (see internal/trace). Unset, every instrumentation site is one
	// atomic load plus a nil check — the tracing-off state stays
	// allocation-free and ring-free.
	tracer atomic.Pointer[trace.Recorder]

	// userState is this runtime's shared state area (registry cells):
	// heap-backed until a process-separated transport installs an shm
	// backing via InstallSharedState. See SharedState.
	userState atomic.Pointer[registry.State]

	// downcalls maps downcall names to their kernel-side targets
	// (RegisterDowncall). Copy-on-write so the serving path is lock-free.
	downcalls atomic.Pointer[map[string]DowncallHandler]
	downMu    sync.Mutex

	// mu guards the shared-object registry only; the crossing fast path
	// never takes it.
	mu     sync.Mutex
	shared []sharedObject
}

type sharedObject struct {
	kernelObj any
	libObj    any
	decafObj  any
	typeID    objtrack.TypeID
	kernelPtr objtrack.CPtr
	libPtr    objtrack.CPtr
}

// NewRuntime creates an XPC runtime for one driver on the given kernel.
func NewRuntime(k *kernel.Kernel, name string, mode Mode, mask xdr.FieldMask) *Runtime {
	r := &Runtime{
		Kernel:       k,
		Mode:         mode,
		KernelSpace:  objtrack.NewAddressSpace(name + "/kernel"),
		LibrarySpace: objtrack.NewAddressSpace(name + "/library"),
		LibTracker:   objtrack.NewTracker(name + "/library"),
		DecafTracker: objtrack.NewTracker(name + "/decaf"),
		Masked:       &xdr.Codec{Mask: mask},
		Full:         &xdr.Codec{},
		Latency:      DefaultLatencyModel,
		decafCtx:     k.NewContext(name + "/decaf"),
		downCtx:      k.NewContext(name + "/downcall"),
	}
	r.downHook = func(name string, arg uint64) (uint64, error) { return r.serveDowncall(nil, name, arg) }
	return r
}

// DecafContext returns the context user-level decaf code executes under.
func (r *Runtime) DecafContext() *kernel.Context { return r.decafCtx }

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
	r.shared = append(r.shared, sharedObject{
		kernelObj: kernelObj, libObj: lib, decafObj: decafObj,
		typeID: typ, kernelPtr: kptr, libPtr: lptr,
	})
	r.mu.Unlock()
	return kptr, nil
}

// Unshare releases every tracker association for a kernel object, after
// which the decaf-side object is collectable. It reports whether the object
// was shared.
func (r *Runtime) Unshare(kernelObj any) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, s := range r.shared {
		if s.kernelObj == kernelObj {
			r.LibTracker.Release(s.kernelPtr, s.typeID)
			r.DecafTracker.Release(s.libPtr, s.typeID)
			r.shared = append(r.shared[:i], r.shared[i+1:]...)
			return true
		}
	}
	return false
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
// cost to ctx, and returns the byte count. The leg parameter classifies the
// bytes for the counters. The intermediate wire buffer comes from a pool;
// nothing decoded retains it.
func (r *Runtime) syncLeg(ctx *kernel.Context, src, dst any, leg Leg) (int, error) {
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
	_ = leg
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
		n, err := r.syncLeg(ctx, s.kernelObj, s.decafObj, LegKernelUser)
		r.addBytes(string(s.typeID), n, 0)
		return err
	}
	n1, err := r.syncLeg(ctx, s.kernelObj, s.libObj, LegKernelUser)
	if err != nil {
		return err
	}
	n2, err := r.syncLeg(ctx, s.libObj, s.decafObj, LegCJava)
	r.addBytes(string(s.typeID), n1, n2)
	return err
}

// SyncToKernel propagates a shared object's decaf state back to the kernel.
func (r *Runtime) SyncToKernel(ctx *kernel.Context, obj any) error {
	s, ok := r.findShared(obj)
	if !ok {
		return fmt.Errorf("xpc: SyncToKernel of unshared %T", obj)
	}
	if r.DirectTransfer {
		n, err := r.syncLeg(ctx, s.decafObj, s.kernelObj, LegKernelUser)
		r.addBytes(string(s.typeID), n, 0)
		return err
	}
	n2, err := r.syncLeg(ctx, s.decafObj, s.libObj, LegCJava)
	if err != nil {
		return err
	}
	n1, err := r.syncLeg(ctx, s.libObj, s.kernelObj, LegKernelUser)
	r.addBytes(string(s.typeID), n1, n2)
	return err
}

// DecafOf returns the decaf-driver counterpart of a shared kernel object.
func (r *Runtime) DecafOf(kernelObj any) (any, bool) {
	s, ok := r.findShared(kernelObj)
	if !ok {
		return nil, false
	}
	return s.decafObj, true
}

// KernelOf returns the kernel counterpart of a shared decaf object.
func (r *Runtime) KernelOf(decafObj any) (any, bool) {
	s, ok := r.findShared(decafObj)
	if !ok {
		return nil, false
	}
	return s.kernelObj, true
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
// runs on whatever goroutine resolves the completion — the submitting
// context under inline transports, the service goroutine under an async
// transport — so it must only record and defer (a recovery supervisor
// enqueues a work item; it never crosses from the notifier).
func (r *Runtime) SetFaultNotifier(fn func(FaultEvent)) {
	if fn == nil {
		r.faultNotifier.Store(nil)
		return
	}
	r.faultNotifier.Store(&fn)
}

// SetCompletionObserver installs (or, with nil, removes) the observer
// invoked for every resolved submission with its entry-point name, latency
// split (queue wait and crossing cost, virtual time) and fault outcome. The
// benchmark harness attaches here to build caller-visible latency
// histograms. Like the fault notifier it runs on whatever goroutine
// resolves the completion, so fn must be concurrency-safe and must only
// record — never submit or wait.
func (r *Runtime) SetCompletionObserver(fn func(name string, queueWait, crossCost time.Duration, fault bool)) {
	if fn == nil {
		r.completionObserver.Store(nil)
		return
	}
	r.completionObserver.Store(&fn)
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
// fn must be safe for concurrent use (the async service goroutine executes
// call bodies).
func (r *Runtime) SetFaultInjector(fn func(call string) bool) {
	if fn == nil {
		r.faultInjector.Store(nil)
		return
	}
	r.faultInjector.Store(&fn)
}

// Upcall transfers control from the kernel to a user-level driver function:
// the stub path of Figure 1. objs are the shared objects the function
// accesses; their kernel state is synchronized to user level before fn runs
// and back after. In ModeNative, fn simply runs in the calling kernel
// context with no crossing, cost or counter.
//
// Upcall is sugar for Submit followed by an immediate Wait on the
// submission's Completion: under an inline transport that is exactly the
// seed call-and-return crossing; under an async transport the caller stalls
// the submission's full latency, preserving blocking semantics.
//
// The nuclear runtime masks the driver's interrupts for the duration and
// converts a panic in fn into a *UserFault error rather than a kernel crash
// (driver isolation).
func (r *Runtime) Upcall(ctx *kernel.Context, name string, fn func(uctx *kernel.Context) error, objs ...any) error {
	b := Batch{r: r, ctx: ctx}
	return b.Upcall(name, fn, objs...).Flush()
}

// Downcall transfers control from the decaf driver into the kernel — the
// stub path of Figure 2 (snd_card_register and friends). objs are shared
// objects whose decaf state must be visible to the kernel function and whose
// kernel state is synchronized back after. In ModeNative fn runs directly.
// Like Upcall, Downcall is Submit + immediate Wait.
func (r *Runtime) Downcall(uctx *kernel.Context, name string, fn func(kctx *kernel.Context) error, objs ...any) error {
	b := Batch{r: r, ctx: uctx}
	return b.Downcall(name, fn, objs...).Flush()
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

// syncIn synchronizes a call's shared objects to the destination side and
// transfers its opaque payload, counted on cell (the cell of c.Name).
func (r *Runtime) syncIn(ctx *kernel.Context, c *Call, cell *counterCell) error {
	for _, o := range c.Objs {
		var err error
		if c.Up {
			err = r.SyncToUser(ctx, o)
		} else {
			err = r.SyncToKernel(ctx, o)
		}
		if err != nil {
			return err
		}
	}
	r.transferData(ctx, c, cell)
	return nil
}

// syncOut synchronizes a call's shared objects back to the calling side.
func (r *Runtime) syncOut(ctx *kernel.Context, c *Call) error {
	for _, o := range c.Objs {
		var err error
		if c.Up {
			err = r.SyncToKernel(ctx, o)
		} else {
			err = r.SyncToUser(ctx, o)
		}
		if err != nil {
			return err
		}
	}
	return nil
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
// elapsed time to the caller as wait time. Upcall bodies run under fault
// containment; downcall bodies run in the kernel, where a panic is a crash.
// A handler body the worker process already ran (the wire trip precedes
// execution) is not run again: its outcome is applied, counted on cell.
func (r *Runtime) execute(ctx *kernel.Context, c *Call, cell *counterCell) error {
	if c.remoteServed {
		return r.applyRemote(ctx, c, cell)
	}
	if c.Up {
		return r.runUser(ctx, c)
	}
	kernelStart := r.downCtx.Elapsed()
	err := c.Fn(r.downCtx)
	if d := r.downCtx.Elapsed() - kernelStart; d > 0 {
		ctx.Sleep(d)
	}
	return err
}

// runUser runs an upcall's body — its closure, or its registered handler —
// in the decaf context, converting a panic into a *UserFault (driver
// isolation) and charging the user execution's elapsed time to the caller as
// wait time. An installed fault injector may panic before the body runs —
// inside the containment region, so the injection is exactly a real
// decaf-side crash.
func (r *Runtime) runUser(ctx *kernel.Context, c *Call) (err error) {
	userStart := r.decafCtx.Elapsed()
	func() {
		defer func() {
			if p := recover(); p != nil {
				err = &UserFault{Call: c.Name, Cause: p}
			}
		}()
		if ip := r.faultInjector.Load(); ip != nil && (*ip)(c.Name) {
			r.noteInjected(c.Name)
			panic(&InjectedFault{Call: c.Name})
		}
		if c.h != nil {
			err = r.runHandler(c)
		} else {
			err = c.Fn(r.decafCtx)
		}
	}()
	if d := r.decafCtx.Elapsed() - userStart; d > 0 {
		ctx.Sleep(d)
	}
	return err
}

// crossOptions selects the crossing engine's policy for one physical
// crossing.
type crossOptions struct {
	// inline marks a crossing executed on the submitting context: costs are
	// charged to ctx directly, completions resolve at the submit instant,
	// and the sleep portion of the charge is recorded as caller stall.
	inline bool
	// maskIRQs masks the driver's interrupts for upcall crossings. Inline
	// transports mask (the calling kernel thread is inside the driver);
	// the async service does not — the kernel side keeps running and the
	// queue itself serializes decaf execution, so the §3.1.3 reentrancy
	// hazard the mask exists for cannot arise.
	maskIRQs bool
	// abortOnFailure reproduces the inline batch semantics: a user fault
	// aborts the crossing without copying any state back, and an ordinary
	// error stops execution of the remaining calls. Without it (the async
	// service), every submission runs and a fault fails only its own
	// Completion.
	abortOnFailure bool
	// noteStall records the crossing's sleep as caller-visible stall.
	// True for kernel-side inline crossings; false for crossings the async
	// service performs on the decaf timeline (including the decaf side's
	// own nested downcalls), whose cost rolls into crossing time instead.
	noteStall bool
	// start is the virtual instant the crossing begins on the performing
	// timeline; completions of non-inline crossings resolve at start plus
	// the cumulative crossing cost.
	start time.Duration
}

var (
	inlineCrossOptions = crossOptions{inline: true, maskIRQs: true, abortOnFailure: true, noteStall: true}
	// decafSideCrossOptions are for crossings the decaf side performs
	// synchronously on its own timeline: a handler body's nested downcall
	// under any transport (serveDowncall), and a closure body's under an
	// async transport (the decaf runtime thread blocks on its own downcalls
	// rather than queueing to itself, which would deadlock the service
	// loop). Their stall is not the kernel side's: it rolls into the
	// enclosing upcall's crossing time.
	decafSideCrossOptions = crossOptions{inline: true, abortOnFailure: true}
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

// crossSubmissions performs ONE physical crossing delivering every
// submission (the Batch builder only produces single-direction lists; a
// mixed list is counted and masked by its first call's direction). The
// kernel/user transition is paid once for the whole chunk, each call still
// pays its language-boundary transition, object synchronization and
// per-byte payload cost, and every submission's Completion resolves before
// the function returns — after which, by the Transport rule, nothing here
// looks at them again. It returns the chunk's total virtual cost (what the
// last completion's instant lies past opt.start by, for the transport whose
// timeline that is) and the first error, for inline submitters.
//
//decaf:hotpath
func (r *Runtime) crossSubmissions(ctx *kernel.Context, subs []*Submission, opt crossOptions) (time.Duration, error) {
	if len(subs) == 0 {
		return 0, nil
	}
	name, up := subs[0].Call.Name, subs[0].Call.Up
	assertMayBlock(ctx, up, name)
	if up && opt.maskIRQs && len(r.DisableIRQs) > 0 {
		r.maskIRQs()
		defer r.unmaskIRQs()
	}

	startElapsed, startBusy := ctx.Elapsed(), ctx.Busy()
	if len(subs) == 1 {
		r.countTrip(name, up)
		r.Latency.chargeTrip(ctx)
	} else {
		r.countBatch(subs)
		r.Latency.chargeBatchTrip(ctx, len(subs))
	}

	var err error
	if opt.abortOnFailure {
		err = r.runChunkAborting(ctx, subs, opt, startElapsed)
	} else {
		r.runChunkIsolated(ctx, subs, opt, startElapsed)
	}

	cost := ctx.Elapsed() - startElapsed
	if opt.noteStall {
		// The sleep portion of what this crossing charged the submitting
		// context is the caller-visible stall the async transport exists to
		// hide; record it so benchmarks can compare transports.
		if slept := cost - (ctx.Busy() - startBusy); slept > 0 {
			r.noteStall(name, slept)
		}
	}
	return cost, err
}

// resolveAt resolves a submission with its share of the crossing cost. For
// inline crossings the cost was already charged to the submitter, so the
// completion's virtual instant is its submit time; for async crossings it
// is the crossing start plus the cumulative cost so far, giving ordered
// completion instants along the service timeline. cell is the counter cell
// of the call's name.
//
//decaf:hotpath
func resolveAt(sub *Submission, cell *counterCell, opt crossOptions, cum time.Duration, prev time.Duration, err error, fault bool) {
	c := sub.Completion
	if opt.inline {
		c.completeAt = c.submitClock
	} else {
		c.completeAt = opt.start + cum
	}
	c.resolveOn(cell, err, fault, cum-prev)
}

// runChunkAborting executes the chunk with the inline batch semantics: a
// user fault aborts the crossing and nothing synchronizes back (the user
// process is suspect); an ordinary error stops execution of the remaining
// calls but the already-executed calls' objects still synchronize back.
// Returns the first error.
//
//decaf:hotpath
func (r *Runtime) runChunkAborting(ctx *kernel.Context, subs []*Submission, opt crossOptions, baseElapsed time.Duration) error {
	executed, reached := 0, 0
	cells := cellCursor{r: r}
	var err error
	for i, sub := range subs {
		cell := cells.at(sub.Call.Name)
		if serr := r.syncIn(ctx, sub.Call, cell); serr != nil {
			err = serr
			sub.err, sub.mark = serr, ctx.Elapsed()-baseElapsed
			reached = i + 1
			break
		}
		err = r.execute(ctx, sub.Call, cell)
		sub.err, sub.mark = err, ctx.Elapsed()-baseElapsed
		executed++
		reached = i + 1
		if err != nil {
			break
		}
	}
	_, faulted := err.(*UserFault)
	if !faulted {
		for _, sub := range subs[:executed] {
			if serr := r.syncOut(ctx, sub.Call); serr != nil {
				if sub.err == nil {
					sub.err = serr
				}
				if err == nil {
					err = serr
				}
			}
		}
	}
	var prev time.Duration
	for i, sub := range subs {
		cell := cells.at(sub.Call.Name)
		if i >= reached {
			// Never reached: aborted by an earlier failure.
			resolveAt(sub, cell, opt, prev, prev, ErrCrossingAborted, false)
			continue
		}
		// Read the scratch out first: resolving hands the submission back.
		serr, mark := sub.err, sub.mark
		_, f := serr.(*UserFault)
		resolveAt(sub, cell, opt, mark, prev, serr, f)
		prev = mark
	}
	return err
}

// runChunkIsolated executes every submission with per-call fault
// containment — the async queue semantics: the submissions are independent
// requests, so a panic or error in one fails only its own Completion and
// the rest still run and synchronize back.
func (r *Runtime) runChunkIsolated(ctx *kernel.Context, subs []*Submission, opt crossOptions, baseElapsed time.Duration) {
	var prev time.Duration
	cells := cellCursor{r: r}
	for _, sub := range subs {
		cell := cells.at(sub.Call.Name)
		inErr := r.syncIn(ctx, sub.Call, cell)
		err := inErr
		if err == nil {
			err = r.execute(ctx, sub.Call, cell)
		}
		_, faulted := err.(*UserFault)
		// No sync-back after a fault (the user process is suspect) or a
		// failed sync-in (the decaf copy is stale) — matching the inline
		// crossing semantics.
		if !faulted && inErr == nil {
			if serr := r.syncOut(ctx, sub.Call); serr != nil && err == nil {
				err = serr
			}
		}
		cum := ctx.Elapsed() - baseElapsed
		resolveAt(sub, cell, opt, cum, prev, err, faulted)
		prev = cum
	}
}

// LibraryCall models a direct cross-language call from the decaf driver into
// the driver library for scalar arguments (§3.1.1): no marshaling, no
// user/kernel crossing, just the language-boundary cost.
func (r *Runtime) LibraryCall(uctx *kernel.Context, name string, fn func()) {
	if r.Mode == ModeDecaf {
		r.Latency.chargeDirect(uctx)
		r.countLibraryCall(name)
	}
	fn()
}
