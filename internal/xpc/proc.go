//go:build unix

package xpc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"decafdrivers/internal/decaf/registry"
	"decafdrivers/internal/kernel"
	"decafdrivers/internal/trace"
	"decafdrivers/internal/xdr"
)

// DefaultProcShmBytes sizes the payload area of every shared region: room
// for the default payload ring with headroom for larger geometries.
const DefaultProcShmBytes = 8 << 20

// MaxProcBatch caps a ProcTransport's coalescing size. Every lane's two
// descriptor rings hold a full chunk (one descSlotBytes slot per call), so
// the cap bounds the lane area of the shared region: 4 MiB per lane at 1024.
const MaxProcBatch = 1024

// DefaultProcLanes is the submission-lane count a zero ProcConfig gets:
// enough independent lanes that eight concurrent submitters (the contention
// level the bench gate pins) each claim their own.
const DefaultProcLanes = 8

// MaxProcLanes caps the configured lane count: each lane costs a doorbell
// socketpair inherited at a fixed descriptor number, so the cap keeps the
// worker's fd table (and the shm tail) bounded.
const MaxProcLanes = 64

// procWireTimeout bounds every parent-side wire operation — including a
// parked doorbell wait on the ring fast path, measured from the park. A
// dead worker surfaces within one spin-yield quantum (its exit flag) or
// immediately as EOF/EPIPE (the doorbell socketpair closes with it); this
// deadline is the backstop for a wedged one (stopped, swapped out,
// livelocked), which would otherwise block a crossing forever. On expiry the
// worker is killed and the crossing fails as a WorkerDeath.
const procWireTimeout = 30 * time.Second

// descSlotBytes sizes one descriptor-ring slot: room for an encoded submit
// frame carrying a typical copy-path payload inline (a full 1462B ethernet
// frame fits with headroom). A chunk with any larger frame is refused at
// admission (admitChunk): payloads beyond a slot are staged in a payload
// ring, of which only the descriptor crosses.
const descSlotBytes = 2048

// errProcEncode marks a chunk refused at admission because one of its frames
// cannot be encoded into a descriptor slot (see admitChunk): no lane was
// claimed, nothing was written, and the worker is healthy — the submission
// fails without killing or respawning anything.
var errProcEncode = errors.New("xpc: proc frame encode failed")

// DefaultTraceEntries is the per-ring record count a traced transport
// carves: deep enough that a collector sweeping every couple of
// milliseconds keeps up with a full-rate lane.
const DefaultTraceEntries = 4096

// MaxTraceEntries caps the trace-ring entry count a layout header may
// declare (1 MiB of records per ring), bounding the shared-region tail like
// MaxProcLanes bounds the lane area: parseLayout refuses a header past it.
const MaxTraceEntries = 1 << 15

// ProcConfig sizes a ProcTransport.
type ProcConfig struct {
	// Batch is the most calls one wire crossing may coalesce; <1 means
	// DefaultBatchSize.
	Batch int
	// Lanes is the number of independent submission lanes concurrent
	// submitters claim (one extra contended spill lane is always carved on
	// top); <1 means DefaultProcLanes, capped at MaxProcLanes.
	Lanes int
	// Trace enables the cross-process flight recorder: per-lane SPSC trace
	// rings (plus one worker ring) of DefaultTraceEntries records each,
	// carved at the tail of the shared region. Off, there is no shm
	// overhead and no record write. Rings are only written when the bound
	// Runtime also has a tracer installed (SetTracer) before the first
	// crossing.
	Trace bool
}

// ProcTransport is the process-separated XPC transport: the decaf side of
// the boundary is a real child process — a re-exec of the current binary in
// its hidden worker mode (see MaybeRunWorker) — reached through a genuinely
// shared mmap region holding the submission lanes and the payload rings, with
// a socketpair beside it for the worker's acknowledgement. Where the
// in-process transports
// simulate the user/kernel boundary, ProcTransport makes its mechanics
// physical:
//
//   - Every crossing is framed through internal/xdr's reflection-free wire
//     codec into shared-memory descriptor rings, with no syscalls at all
//     unless a side parked (doorbells: Counters.SyscallCrossings). The
//     worker learns the region's geometry from a layout header at its start
//     (layout.go), so the socketpair carries one frame per worker epoch: the
//     worker's acknowledgement that it accepted the header
//     (Counters.WireBytesIn). The kernel side writes nothing to it.
//   - Zero-copy payloads stay zero-copy across address spaces: a slot
//     descriptor crosses the wire and the worker resolves it against its
//     own mapping of the shared region, returning a checksum of the bytes
//     it can actually see; the kernel side verifies it, so a broken mapping
//     is an error, not a silent simulation.
//   - Fault containment is physical. A decaf-side panic (real or injected)
//     SIGKILLs the worker; a worker that dies externally (kill -9, crash)
//     is detected by the next crossing (its spin reads the exit flag, or
//     its doorbell or parked wait reads EOF). Either way the failure
//     surfaces as a contained *UserFault whose cause is a *WorkerDeath,
//     flowing through SetFaultNotifier to a recovery.Supervisor, which
//     respawns the worker (WorkerRespawner), re-registers the shared ring
//     and replays the state journal against a process that actually died.
//
// The steady-state data plane is sharded and mutex-free: concurrent
// submitters claim independent submission lanes (each its own SPSC
// submit/complete ring pair in the shared mapping) through a lock-free CAS
// lane table, so crossings from different goroutines pipeline through the
// worker instead of queueing behind one transport lock. The lanes are the
// only data plane — there is no second path for any kind of call — and the
// control-plane mutex survives only on bind, payload-ring registration,
// worker lifecycle and teardown; tests assert the steady state acquires it
// zero times (see ControlAcquires).
//
// Call bodies are handler-table calls (Batch.Call; see
// internal/decaf/registry) and execute in the worker process for real: the
// worker is a re-exec of the same binary, so it holds the same registered
// handler table, numbered alike (the layout header's digest proves it), and
// each FrameCall carries the index of the handler to run against the payload
// bytes the worker reads through its own shm mapping. Results, contained
// panics and injected-fault outcomes travel back as completion statuses;
// nested downcalls from an executing handler cross back as FrameDown round
// trips on the lane the call was claimed on, served by that lane's holder
// (see laneConverse). The worker executes strictly one body at a time, as
// the paper's single-threaded decaf driver does: while a body waits on a
// downcall no other lane is served, so a downcall target must not wait on a
// lock held across another in-flight crossing. Shared driver state lives in
// a state window of the same mapping (layout.go), so both processes read and
// write it through registry.State. The virtual cost model matches
// BatchTransport exactly: crossings per packet, stall and marshaling charges
// are identical, and the wire adds real-world counters on top rather than
// perturbing the modeled timeline.
//
// A ProcTransport binds to the first Runtime that submits through it and
// must be Closed (directly, or by SetTransport replacing it) to stop the
// worker process and release the shared region.
type ProcTransport struct {
	cfg ProcConfig

	// mu is the control-plane mutex: bind (first use), payload-ring
	// registration, worker spawn/teardown and Close. The steady-state lane path never touches it. Always acquired
	// through lockControl, which counts acquisitions so tests can assert
	// the data plane's mutex-freedom.
	mu         sync.Mutex
	muAcquires atomic.Uint64

	// closed, rt and reg are read on the lock-free submit path and written
	// under mu, so the fast path is load-only.
	closed atomic.Bool
	rt     atomic.Pointer[Runtime]
	reg    atomic.Pointer[ringGeom]

	// epoch is the live worker generation: process handle, lane table, and
	// the rings carved for it. Teardown (death, protocol failure, respawn,
	// Close) retires the whole epoch; the next crossing carves a fresh one.
	epoch atomic.Pointer[procEpoch]

	// shm is the shared region and lay its geometry (mu; set once). hdr is
	// the layout header at its start, rewritten from lay for every epoch and
	// never read back.
	shm *shmRegion
	lay layout
	hdr *layoutHdr

	// Flight-recorder rings carved from the shared-region tail (mu; set
	// once with shm when Trace is set). traceKern[i] is lane i's
	// kernel-side ring; traceWorker is the worker process's ring. Ring
	// positions persist across worker epochs — the timeline spans respawns.
	traceKern     []*trace.Ring
	traceWorker   *trace.Ring
	traceAttached bool // mu: rings handed to the runtime's recorder

	// geoms maps rings created by NewMappedRing to their geometry (mu).
	geoms map[*PayloadRing]ringGeom

	descEntries int
	descPeak    atomic.Uint64

	// Lane gauges (transport lifetime, like the worker gauges).
	laneAcq        atomic.Uint64
	laneSpills     atomic.Uint64
	laneActive     atomic.Int64
	laneActivePeak atomic.Uint64

	// rrHint rotates lane claims of hintless callers across the lane table.
	rrHint atomic.Uint32

	// spawns counts workers that acknowledged their layout, deaths the
	// epochs retired by a failure. Atomic, so a counters snapshot never
	// waits on the control mutex.
	spawns atomic.Uint64
	deaths atomic.Uint64
}

type ringGeom struct {
	slots    uint32
	slotSize uint32
}

// word packs the geometry as the layout header carries it.
func (g ringGeom) word() uint64 { return uint64(g.slots)<<32 | uint64(g.slotSize) }

// procLane is one submission lane of an epoch: a submit/complete SPSC ring
// pair in the shared mapping, a dedicated completion doorbell, and the
// claim word of the lock-free lane table. seq/ids/sums are owned by the
// claim holder — the CAS acquire / store release on claim orders them
// across holders (descring.go invariant 4).
type procLane struct {
	idx  uint32
	sub  *descRing
	cmp  *descRing
	bell *fdDoorbell

	claim atomic.Uint32 //decaf:shared
	seq   uint64
	ids   []uint64
	sums  []uint64

	// tr is the lane's kernel-side flight-recorder ring, nil when tracing
	// is off. Owned by the claim holder like seq/ids/sums, so its SPSC
	// producer discipline rides the lane-exclusivity invariant for free.
	tr *trace.Ring
}

// procEpoch is one worker generation. failed flips exactly once (CAS) when
// any holder observes the worker dead or suspect; teardown then waits for
// every lane claim to clear before closing descriptors and re-carving, so a
// straggling holder can never touch a retired epoch's rings.
type procEpoch struct {
	w      *procWorker
	pid    int
	dir    *laneDir
	bell   *fdDoorbell // submit-side doorbell (wakes the parked worker)
	lanes  []*procLane
	failed atomic.Bool
	torn   bool // mu: teardown completed
}

// procWorker is one live worker process. sock carries one frame, the
// worker's layout acknowledgement, and closing it is the shutdown; bell is
// the parent end of the submit doorbell socketpair. The cmd.Wait goroutine
// sets dead, then closes exited: lane holders spinning on a completion read
// the flag, teardown waits on the channel.
type procWorker struct {
	cmd    *exec.Cmd
	sock   *os.File
	bell   *os.File
	dead   atomic.Bool
	exited chan struct{}
}

// death is the *WorkerDeath a failed wire operation on ep reports: the exit
// observation once the worker process is known to have exited — the cause,
// of which an EOF or EPIPE on its doorbell is only a symptom — and err
// otherwise.
func (ep *procEpoch) death(err error) *WorkerDeath {
	if ep.w.dead.Load() {
		err = errWorkerExited
	}
	return &WorkerDeath{PID: ep.pid, Err: err}
}

// NewProcTransport creates a process-separated transport. The worker
// process is spawned lazily on first use and respawned on demand after a
// death, so construction itself cannot fail on platforms that support the
// transport.
func NewProcTransport(cfg ProcConfig) (*ProcTransport, error) {
	if cfg.Batch < 1 {
		cfg.Batch = DefaultBatchSize
	}
	if cfg.Batch > MaxProcBatch {
		cfg.Batch = MaxProcBatch
	}
	if cfg.Lanes < 1 {
		cfg.Lanes = DefaultProcLanes
	}
	if cfg.Lanes > MaxProcLanes {
		cfg.Lanes = MaxProcLanes
	}
	return &ProcTransport{
		cfg:         cfg,
		geoms:       make(map[*PayloadRing]ringGeom),
		descEntries: nextPow2(cfg.Batch),
	}, nil
}

// Name implements Transport.
func (t *ProcTransport) Name() string { return fmt.Sprintf("proc(b%d)", t.cfg.Batch) }

// MaxBatch implements Transport.
func (t *ProcTransport) MaxBatch() int { return t.cfg.Batch }

// Lanes reports the configured submission-lane count (excluding the spill
// lane).
func (t *ProcTransport) Lanes() int { return t.cfg.Lanes }

// ControlAcquires reports how many times the control-plane mutex has been
// acquired over the transport's lifetime. The steady-state invariant —
// Submit takes no lock — is asserted by reading it before and after a
// storm of ring crossings: the delta must be zero.
func (t *ProcTransport) ControlAcquires() uint64 { return t.muAcquires.Load() }

// lockControl acquires the control-plane mutex, counting the acquisition
// for ControlAcquires. Every t.mu.Lock in this file goes through it.
func (t *ProcTransport) lockControl() {
	t.muAcquires.Add(1)
	t.mu.Lock()
}

// bind attaches the transport to its runtime on first use: an atomic load
// in the steady state, the control mutex only for the first submitter.
//
//decaf:hotpath
func (t *ProcTransport) bind(r *Runtime) error {
	if t.closed.Load() {
		return ErrTransportClosed
	}
	cur := t.rt.Load()
	if cur == r {
		return nil
	}
	if cur != nil {
		return ErrTransportBound
	}
	return t.bindSlow(r)
}

func (t *ProcTransport) bindSlow(r *Runtime) error {
	t.lockControl()
	defer t.mu.Unlock()
	return t.bindLocked(r)
}

func (t *ProcTransport) bindLocked(r *Runtime) error {
	if t.closed.Load() {
		return ErrTransportClosed
	}
	cur := t.rt.Load()
	if cur == nil {
		t.rt.Store(r)
		return nil
	}
	if cur != r {
		return ErrTransportBound
	}
	return nil
}

// Submit implements Transport: chunk like a BatchTransport and push each
// chunk through the boundary to the worker, which runs the call bodies; the
// crossing engine applies each call's outcome and resolves it as soon as
// the worker's completion for it — proof it read any shared-ring payload —
// is validated.
//
//decaf:hotpath
func (t *ProcTransport) Submit(r *Runtime, ctx *kernel.Context, subs []*Submission) error {
	if len(subs) == 0 {
		return nil
	}
	r.Admit(subs)
	if err := refuseProbes(subs); err != nil {
		return err
	}
	if err := t.bind(r); err != nil {
		for _, sub := range subs {
			sub.Completion.resolve(err, false, 0)
		}
		return err
	}
	var first error
	for len(subs) > 0 {
		chunk := subs
		if len(chunk) > t.cfg.Batch {
			chunk = subs[:t.cfg.Batch]
		}
		subs = subs[len(chunk):]
		if first != nil {
			for _, sub := range chunk {
				sub.Completion.resolve(ErrCrossingAborted, false, 0)
			}
			continue
		}
		if err := t.crossChunk(r, ctx, chunk); err != nil {
			first = err
		}
	}
	return first
}

// crossChunk performs one crossing: the wire conversation, which steps the
// crossing engine through each call as its completion lands. A wire
// failure means the decaf process is dead or suspect: of the calls not yet
// resolved, the first resolves as a contained fault (firing the runtime's
// fault notifier, the recovery trigger) and the rest abort — mirroring the
// inline batch abort semantics for an in-process decaf crash. A chunk
// refused at admission (errProcEncode) is not a fault: nothing crossed and
// the worker is fine, so the chunk just fails. A fault raised by the call
// bodies themselves makes the containment physical by SIGKILLing the
// worker.
//
//decaf:hotpath
func (t *ProcTransport) crossChunk(r *Runtime, ctx *kernel.Context, chunk []*Submission) error {
	e := r.engine(ctx, kernelSide)
	if werr := t.wireCross(r, ctx, chunk, &e); werr != nil {
		return e.fail(chunk[e.n:], werr, !errors.Is(werr, errProcEncode))
	}
	err := e.end()
	if _, faulted := err.(*UserFault); faulted {
		// The decaf driver crashed: its process dies with it. The next
		// crossing (or the recovery supervisor) respawns a fresh worker.
		t.killWorkerOnFault()
	}
	return err
}

// wireCross moves one chunk across the physical boundary and awaits the
// worker's acknowledgements, verifying payload checksums. There is one way
// across: a claimed submission lane's shared-memory rings (laneCrossOn) —
// lock-free, no syscalls unless a side parked, nested downcalls included. A
// lane claim that fails because the epoch was retired under us (worker died
// before anything was published) retries transparently on the next epoch,
// so a dead worker is respawned by the next crossing; once a frame is
// published the crossing is committed to its epoch and a failure surfaces
// instead. Any boundary failure retires the worker epoch and returns the
// death or protocol error; a chunk admitChunk refuses never reaches a lane.
// A non-nil eng steps through each call as its completion lands (see
// laneConverse).
//
//decaf:hotpath
func (t *ProcTransport) wireCross(r *Runtime, ctx *kernel.Context, chunk []*Submission, eng *chunkEngine) error {
	if t.closed.Load() {
		return ErrTransportClosed
	}
	if err := admitChunk(chunk); err != nil {
		return err
	}
	for {
		ep, err := t.currentEpoch()
		if err != nil {
			return err
		}
		if lane := t.claimLane(ep, ctx); lane != nil {
			return t.laneCrossOn(r, ctx, ep, lane, chunk, eng)
		}
	}
}

// CrossChunk exposes the boundary layer of one crossing — lane claim,
// descriptor encode, completion await and checksum validation, without the
// submit/complete bookkeeping around it — so benchmarks can pin the lane
// submit path's allocation count in isolation. It is the one way an
// isolation probe (a Call with no handler behind it, which Submit refuses)
// crosses: its frame is a FrameSubmit, and the worker's whole service is
// proving it read the payload. Nothing resolves the chunk's completions.
func (t *ProcTransport) CrossChunk(r *Runtime, ctx *kernel.Context, chunk []*Submission) error {
	return t.wireCross(r, ctx, chunk, nil)
}

// admitChunk is the one admission check of the data plane, made before any
// lane is claimed: every frame of the chunk must be guaranteed to encode
// into one descriptor-ring slot. A frame carries no name, so each is sized
// by its payload in its copy-path form (Data counted even when a slot
// descriptor would cross), so a stale zero-copy descriptor degrading to its
// Data fallback at encode time cannot overflow the slot the chunk was
// admitted for — which is what lets laneConverse treat an encode failure as
// impossible rather than unwinding a partially published ring. A refusal is
// errProcEncode: nothing crossed, the worker is untouched. (No driver comes
// near it: the largest copy-path payload is a 1514 B ethernet frame, and
// bigger ones are staged in payload ring slots, of which only the 12-byte
// descriptor crosses.)
//
//decaf:hotpath
func admitChunk(chunk []*Submission) error {
	for _, sub := range chunk {
		c := sub.Call
		if n := xdr.FrameWireSize(xdr.Frame{Data: c.Data}); n > descSlotBytes {
			return fmt.Errorf("%w: %.64q encodes to %dB, a descriptor slot holds %dB", errProcEncode, c.Name, n, descSlotBytes)
		}
	}
	return nil
}

// atomicMaxU64 lifts a to at least v (CAS max): the allocation-free way to
// maintain a high-water mark from concurrent writers.
//
//decaf:hotpath
func atomicMaxU64(a *atomic.Uint64, v uint64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// claimLane acquires an exclusive submission lane from ep's lock-free lane
// table: try the caller's affinity-cached lane first, sweep the regular
// lanes from there, and spill to the dedicated contended lane when every
// regular lane is busy. Returns nil when the epoch failed mid-claim — the
// caller retries on a fresh epoch. The post-CAS failed re-check pairs with
// teardown's claims-drain wait: a claim taken before failed flipped is
// waited out; one taken after observes the flip and backs off.
//
//decaf:hotpath
func (t *ProcTransport) claimLane(ep *procEpoch, ctx *kernel.Context) *procLane {
	regular := uint32(len(ep.lanes) - 1)
	start, hinted := uint32(0), false
	if ctx != nil {
		start, hinted = ctx.LaneHint()
	}
	if !hinted || start >= regular {
		start = t.rrHint.Add(1)
	}
	for i := uint32(0); i < regular; i++ {
		lane := ep.lanes[(start+i)%regular]
		if lane.claim.CompareAndSwap(0, 1) {
			if ep.failed.Load() {
				lane.claim.Store(0)
				return nil
			}
			t.noteClaim()
			if ctx != nil {
				ctx.SetLaneHint(lane.idx)
			}
			return lane
		}
	}
	// Every regular lane is held: spill to the contended fallback lane
	// rather than failing or blocking on a mutex. Spills are a capacity
	// signal (LaneSpills), not an error.
	t.laneSpills.Add(1)
	spill := ep.lanes[regular]
	for !spill.claim.CompareAndSwap(0, 1) {
		if ep.failed.Load() {
			return nil
		}
		runtime.Gosched()
	}
	if ep.failed.Load() {
		spill.claim.Store(0)
		return nil
	}
	t.noteClaim()
	if spill.tr != nil {
		// SPSC-safe: the claim just acquired makes this holder the spill
		// lane ring's sole producer.
		spill.tr.Emit(trace.KindSpill, uint16(spill.idx), trace.SrcKernel, 0, 0)
	}
	return spill
}

// noteClaim maintains the lane acquisition and occupancy gauges.
//
//decaf:hotpath
func (t *ProcTransport) noteClaim() {
	t.laneAcq.Add(1)
	n := t.laneActive.Add(1)
	if n > 0 {
		atomicMaxU64(&t.laneActivePeak, uint64(n))
	}
}

// releaseLane returns a lane to the table. The Store is the release half of
// invariant 4: everything this holder wrote to the lane's rings and scratch
// happens-before the next holder's CAS acquire.
//
//decaf:hotpath
func (t *ProcTransport) releaseLane(lane *procLane) {
	t.laneActive.Add(-1)
	lane.claim.Store(0)
}

// laneCrossOn crosses one chunk on a claimed lane and gives the lane back.
// A failed conversation retires the epoch — after the release, because
// teardown waits for every claim to drain.
//
//decaf:hotpath
func (t *ProcTransport) laneCrossOn(r *Runtime, ctx *kernel.Context, ep *procEpoch, lane *procLane, chunk []*Submission, eng *chunkEngine) error {
	err := t.laneConverse(r, ctx, ep, lane, chunk, eng)
	t.releaseLane(lane)
	if err != nil {
		t.retireEpoch(ep)
	}
	return err
}

// laneConverse is the lock-free steady-state fast path, and the only place
// a call frame is built or a completion validated: encode each submit frame
// directly into the claimed lane's submit ring, wake the worker only if it
// parked (one flag spans all lanes — invariant 5), and collect the lane's
// completion descriptors tagged with its per-lane sequence. Zero wire
// traffic and zero heap allocations per crossing — the scratch arrays live
// on the lane and the encode lands in the mapping itself (admitChunk proved
// it cannot spill, so AppendFrame never grows the slot-backed slice).
//
// A handler that may call down is a publication barrier: the frames behind
// it in the chunk are published only once its completion is consumed. Its
// body's FrameDown requests arrive on the completion ring ahead of that
// completion; each is served here, by the holder already waiting, and
// answered on the submit ring — where, thanks to the barrier, the result is
// the next entry the blocked body can see. A downcall-free chunk is one run,
// published and pipelined whole.
//
// A crossing waits only on the transfer. The lane's rings keep their own
// index in private memory and read the worker's only when their cached
// copy says full or empty (descring.go). Each frame is encoded, then the
// kernel's half of its payload proof is hashed, then it is published: the
// head store is a locked instruction that waits until the frame's freshly
// copied cache lines are owned, and the worker last read those lines, so
// the hash of the kernel's own source bytes fills that wait. The slot
// lookup stays ahead of the encode, because it decides whether the
// descriptor or the bytes cross. The sum is compared against the
// completion's Aux before the call is stepped, for every dispatch outcome.
//
// With a crossing engine (every Submit; CrossChunk passes none, and carries
// only probes, which never call down), call i's
// step — transfer accounting, the outcome applied, its mark and its resolve
// — runs as soon as completion i is validated, the engine's begin just
// before the first: the kernel's bookkeeping for call i overlaps the
// worker's service of calls i+1…n, and only the last call's step is left
// once the wire is done. A downcall served mid-chunk runs in a window the
// engine lifts: the driver's IRQs unmasked and the caller's sleep for it
// kept out of the marks and the stall. Once the last call is stepped the
// chunk is the submitter's again, and nothing here reads it.
//
// The error is the worker's death (*WorkerDeath: its exit observed while
// spinning, EOF, EPIPE, doorbell timeout) or the protocol violation of a
// live-but-suspect one, returned as itself; either way the caller retires
// the epoch, and eng.n says how many calls were resolved before it.
//
//decaf:hotpath
func (t *ProcTransport) laneConverse(r *Runtime, ctx *kernel.Context, ep *procEpoch, lane *procLane, chunk []*Submission, eng *chunkEngine) error {
	key := chunk[0].Call.id
	ring := r.payloadRing.Load()
	reg := t.reg.Load()
	if lane.tr != nil {
		lane.tr.Emit(trace.KindChunkBegin, uint16(lane.idx), trace.SrcKernel, lane.seq+1, uint64(len(chunk)))
	}
	ids, sums := lane.ids[:len(chunk)], lane.sums[:len(chunk)]
	handlersLeft := 0
	for _, sub := range chunk {
		if sub.Call.h != nil {
			handlersLeft++
		}
	}
	injector := r.faultInjector.Load()
	totalWakes := 0
	for next, done := 0, 0; done < len(chunk); {
		first := next
		for barrier := false; next < len(chunk) && !barrier; next++ {
			c := chunk[next].Call
			lane.seq++
			ids[next] = lane.seq
			sums[next] = 0
			f := xdr.Frame{Kind: xdr.FrameSubmit, ID: lane.seq, Up: c.Up, Lane: lane.idx}
			if c.h != nil {
				// Handler-table call: the worker executes the body at the
				// handler's table index, which Status carries; no name crosses.
				// Aux carries the count of handler frames after this one in the
				// chunk, so the worker can mirror the kernel side's chunk-abort
				// by skipping them when this body fails. Injection is decided
				// here, at encode time: the worker reports the injected fault
				// without executing (the inline path decides inside runUser —
				// never both).
				handlersLeft--
				f.Kind = xdr.FrameCall
				f.Status = c.h.ID()
				f.Aux = uint64(handlersLeft)
				c.remoteServed = false
				barrier = c.h.Down
				if injector != nil && (*injector)(c.Name) {
					f.Inject = true
					r.noteInjected(c.id)
				}
			}
			// The payload the proof covers: the slot's bytes through the
			// kernel side's mapping (zero-copy: only the descriptor crosses),
			// or the bytes the frame copies. A stale descriptor (slot released
			// before its crossing) transfers nothing, matching the in-process
			// transferSlot semantics — the ring's stale counter records it.
			// The lookup stays ahead of the encode: it decides what crosses.
			var payload []byte
			if c.Slot.Valid() && ring != nil && reg != nil {
				if b, berr := ring.Buffer(c.Slot); berr == nil {
					f.Slot, payload = c.Slot, b
				}
			}
			if !f.Slot.Valid() && len(c.Data) > 0 {
				f.Data, payload = c.Data, c.Data
			}
			if err := lane.stage(&f); err != nil {
				// Unreachable by construction (see stage). Earlier frames of
				// the chunk were published — the worker is mid-chunk and must
				// not survive it.
				return err
			}
			// The kernel's half of the proof is hashed from its own bytes
			// between the copy into the slot and the head store, where the
			// store would otherwise wait for the slot's lines; it is compared
			// against the completion's before the call is stepped.
			if payload != nil {
				sums[next] = payloadSum(payload)
			}
			lane.sub.publish()
		}
		// The run's length, not a read of the worker's tail: the submit
		// ring is empty when a run starts, so it bounds the occupancy.
		atomicMaxU64(&t.descPeak, uint64(next-first))
		if lane.tr != nil {
			lane.tr.Emit(trace.KindEnqueue, uint16(lane.idx), trace.SrcKernel, ids[first], uint64(next-first))
		}
		if err := t.wakeWorker(r, ep, lane, key, ids[first]); err != nil {
			return err
		}
		// The bookkeeping sits behind the publication on purpose: it runs
		// while the worker is already serving the frames.
		if first == 0 {
			r.state().cell(key).ringCross.Add(1)
		}
		// Scale the completion spin budget down by the lanes currently in
		// flight: K holders spinning concurrently on an oversubscribed machine
		// take ~K times longer wall-clock to exhaust a fixed budget, starving
		// the worker of CPU exactly when it has the most lanes to serve.
		// Parking promptly hands the worker the whole machine instead. A sole
		// holder has nobody to hand its CPU to and spins soloSpinBudget.
		budget := soloSpinBudget
		if active := t.laneActive.Load(); active > 1 {
			budget = descSpinBudget / int(active)
		}
		for done < next {
			slot, wakes, err := lane.cmp.awaitSlotBudget(lane.bell, procWireTimeout, budget, &ep.w.dead)
			if wakes > 0 {
				r.noteDoorbells(chunk[done].Call.id, wakes)
				totalWakes += wakes
			}
			if err != nil {
				return ep.death(err)
			}
			resp, _, derr := xdr.DecodeFrame(slot)
			lane.cmp.advance()
			if derr != nil {
				return fmt.Errorf("xpc: corrupt completion descriptor on lane %d: %v", lane.idx, derr)
			}
			c := chunk[done].Call
			switch {
			case resp.ID != ids[done] || resp.Lane != lane.idx ||
				(resp.Kind != xdr.FrameComplete && (resp.Kind != xdr.FrameDown || c.h == nil || !c.h.Down)):
				return fmt.Errorf("xpc: proc worker protocol: got %v id %d lane %d for %q, want complete id %d lane %d",
					resp.Kind, resp.ID, resp.Lane, c.Name, ids[done], lane.idx)
			case resp.Kind == xdr.FrameDown:
				// The body of call `done` called down mid-execution: serve the
				// nested crossing and resume waiting for its completion. The
				// time the kernel-side target took is not the worker's.
				since := eng.lift()
				err := t.serveLaneDowncall(r, ctx, ep, lane, resp)
				eng.land(since)
				if err != nil {
					return err
				}
				continue
			case resp.Status != wireStatusOK && (c.h == nil || !remoteStatusValid(resp.Status)):
				return fmt.Errorf("xpc: proc worker rejected %q: status %d %s", c.Name, resp.Status, resp.Name)
			case resp.Aux != sums[done]:
				// Checked for every dispatch outcome too: the sum proves the
				// worker read the payload the kernel staged.
				return fmt.Errorf("xpc: payload checksum mismatch on %q: worker saw %#x, kernel staged %#x",
					c.Name, resp.Aux, sums[done])
			}
			if c.h != nil {
				// A dispatch outcome — including failure, contained fault,
				// injection and chunk-abort skip — is a successful wire
				// conversation; execute maps it onto the call's result.
				c.remoteServed = true
				c.remoteStatus = resp.Status
				c.remoteErr = resp.Name
			}
			if eng != nil {
				if done == 0 {
					eng.begin(chunk)
				}
				eng.step(chunk[done])
			}
			done++
		}
	}
	if lane.tr != nil {
		if totalWakes > 0 {
			lane.tr.Emit(trace.KindWake, uint16(lane.idx), trace.SrcKernel, ids[0], uint64(totalWakes))
		}
		lane.tr.Emit(trace.KindChunkEnd, uint16(lane.idx), trace.SrcKernel, ids[0], uint64(len(chunk)))
	}
	return nil
}

// stage encodes one frame into the lane's next submit slot; the caller
// publishes it with lane.sub.publish(). Neither failure can happen on a
// healthy lane: the ring holds a full batch, the holder drained its
// completions before releasing, and the worker advances each submit
// descriptor before acknowledging it (a downcall-making call's even before
// running it), so a full ring means a corrupted header; admitChunk sized
// every call frame, and a downcall result is bounded by clipFrameName.
//
//decaf:hotpath
func (lane *procLane) stage(f *xdr.Frame) error {
	slot := lane.sub.reserve()
	if slot == nil {
		return fmt.Errorf("xpc: lane %d submit ring full at %d entries", lane.idx, lane.sub.entries)
	}
	if _, err := xdr.AppendFrame(slot[:0], *f); err != nil {
		return fmt.Errorf("xpc: lane %d descriptor encode %v id %d: %v", lane.idx, f.Kind, f.ID, err)
	}
	return nil
}

// wakeWorker is invariant 5's producer half: publish first, then consume the
// worker's parked declaration. Racing producers swap the one flag; exactly
// one observes 1 and pays the wake syscall.
//
//decaf:hotpath
func (t *ProcTransport) wakeWorker(r *Runtime, ep *procEpoch, lane *procLane, key uint32, id uint64) error {
	if ep.dir.parked.Swap(0) != 1 {
		return nil
	}
	if err := ep.bell.ring(); err != nil {
		return ep.death(err)
	}
	r.noteDoorbells(key, 1)
	if lane.tr != nil {
		lane.tr.Emit(trace.KindDoorbell, uint16(lane.idx), trace.SrcKernel, id, 1)
	}
	return nil
}

// serveLaneDowncall serves one FrameDown of a body executing in the worker:
// the kernel-side target bound to the downcall index the frame's Status
// carries runs as a real downcall crossing (the
// runtime's serveDowncall carries the cost accounting), and the scalar
// result — or the error text — returns to the blocked body as a
// FrameDownResult on the lane's submit ring, which is empty: the worker
// released the call's slot before running it and the barrier kept anything
// else from being published behind it.
func (t *ProcTransport) serveLaneDowncall(r *Runtime, ctx *kernel.Context, ep *procEpoch, lane *procLane, req xdr.Frame) error {
	d := registry.Downcall(req.Status)
	res, derr := r.serveDowncall(ctx, d, req.Aux)
	ack := xdr.Frame{Kind: xdr.FrameDownResult, ID: req.ID, Aux: res, Lane: lane.idx}
	if derr != nil {
		ack.Status = 1
		ack.Name = clipFrameName(derr.Error())
	}
	if err := lane.stage(&ack); err != nil {
		return err
	}
	lane.sub.publish()
	return t.wakeWorker(r, ep, lane, uint32(d), req.ID)
}

// currentEpoch returns the live epoch, carving a fresh one under the
// control mutex when none exists (first crossing, or after a teardown).
//
//decaf:hotpath
func (t *ProcTransport) currentEpoch() (*procEpoch, error) {
	if ep := t.epoch.Load(); ep != nil && !ep.failed.Load() {
		return ep, nil
	}
	t.lockControl()
	defer t.mu.Unlock()
	return t.ensureEpochLocked()
}

// retireEpoch retires ep after an observed worker death, a protocol
// violation or checksum mismatch from a live-but-suspect worker, or a decaf
// fault: the first observer runs the teardown (which kills the process);
// later observers find it done. A lane holder releases its claim first.
func (t *ProcTransport) retireEpoch(ep *procEpoch) {
	if ep.failed.CompareAndSwap(false, true) {
		t.lockControl()
		t.teardownEpochLocked(ep, true)
		t.mu.Unlock()
	}
}

// teardownEpochLocked retires an epoch under mu: mark it failed (claimers
// back off), kill and reap the worker (parked holders wake with EOF), wait
// for every lane claim to drain, then close the parent-side descriptors and
// clear the epoch slot. Idempotent via ep.torn. The claims-drain wait is
// what makes re-carving safe: no straggler can touch the shared rings once
// this returns.
func (t *ProcTransport) teardownEpochLocked(ep *procEpoch, countDeath bool) {
	if ep.torn {
		return
	}
	ep.failed.Store(true)
	if ep.w.cmd.Process != nil {
		_ = ep.w.cmd.Process.Kill()
	}
	<-ep.w.exited
	for _, lane := range ep.lanes {
		for lane.claim.Load() != 0 {
			runtime.Gosched()
		}
	}
	_ = ep.w.sock.Close()
	if ep.w.bell != nil {
		_ = ep.w.bell.Close()
	}
	for _, lane := range ep.lanes {
		if lane.bell.f != nil {
			_ = lane.bell.f.Close()
		}
	}
	if countDeath {
		t.deaths.Add(1)
	}
	ep.torn = true
	if t.epoch.Load() == ep {
		t.epoch.Store(nil)
	}
}

// NewMappedRing implements MappedRingTransport: the ring's slot buffers
// slice the shared region, so the worker resolves descriptors against the
// same physical pages.
func (t *ProcTransport) NewMappedRing(slots, slotSize int) (*PayloadRing, error) {
	t.lockControl()
	defer t.mu.Unlock()
	if t.closed.Load() {
		return nil, ErrTransportClosed
	}
	if err := t.ensureShmLocked(); err != nil {
		return nil, err
	}
	need := slots * slotSize
	if slots < 1 || slotSize < 1 || need > t.lay.payload.n {
		return nil, fmt.Errorf("xpc: mapped ring %dx%dB exceeds the %dB payload area of the shared region",
			slots, slotSize, t.lay.payload.n)
	}
	ring, err := NewPayloadRingOver(t.lay.payload.of(t.shm.mem)[:need], slots, slotSize)
	if err != nil {
		return nil, err
	}
	t.geoms[ring] = ringGeom{slots: uint32(slots), slotSize: uint32(slotSize)}
	return ring, nil
}

// RegisterRing implements ringRegistrar: publish the ring's geometry in the
// layout header, where a live worker loads it for its next slot and every
// later epoch finds it. Only rings created by NewMappedRing are accepted — a
// heap-backed ring would be invisible to the worker's address space.
func (t *ProcTransport) RegisterRing(r *Runtime, ring *PayloadRing) error {
	t.lockControl()
	defer t.mu.Unlock()
	if err := t.bindLocked(r); err != nil {
		return err
	}
	geom, ok := t.geoms[ring]
	if !ok {
		return fmt.Errorf("xpc: ProcTransport requires a shared-memory ring (Runtime.NewRing / NewMappedRing)")
	}
	t.reg.Store(&geom)
	t.hdr.ringGeom.Store(geom.word())
	return nil
}

// UnregisterRing implements ringRegistrar: withdraw the registration from
// the transport and from the header.
func (t *ProcTransport) UnregisterRing(r *Runtime, ring *PayloadRing) {
	t.lockControl()
	defer t.mu.Unlock()
	t.reg.Store(nil)
	delete(t.geoms, ring)
	if t.hdr != nil {
		t.hdr.ringGeom.Store(0)
	}
}

// laneCount is the carved lane total: the configured lanes plus the
// dedicated spill lane.
func (t *ProcTransport) laneCount() int { return t.cfg.Lanes + 1 }

// ensureShmLocked creates and maps the shared region on first need, laid
// out by planLayout: the header, the payload rings' area, the shared state
// cells (both processes' registry.State backing), the lane directory and the
// per-lane descriptor-ring pairs, then the trace rings at the tail.
func (t *ProcTransport) ensureShmLocked() error {
	if t.shm != nil {
		return nil
	}
	traceEntries := 0
	if t.cfg.Trace {
		traceEntries = DefaultTraceEntries
	}
	l := planLayout(DefaultProcShmBytes, t.laneCount(), t.descEntries, traceEntries)
	shm, err := newShmRegion(l.trace.end())
	if err != nil {
		return err
	}
	if l.traceRings > 0 {
		// One trace ring per lane for the kernel side plus the worker's own
		// ring. A fresh mapping is zeroed, which is the rings' initial state;
		// positions then persist across worker epochs.
		rings, terr := trace.CarveRings(l.trace.of(shm.mem), l.traceRings, l.traceEntries)
		if terr != nil {
			_ = shm.Close()
			return terr
		}
		t.traceKern = rings[:t.laneCount()]
		t.traceWorker = rings[t.laneCount()]
	}
	t.shm, t.lay, t.hdr = shm, l, layoutAt(shm.mem)
	return nil
}

// ensureEpochLocked returns the live epoch, retiring a failed one and
// carving a fresh one when needed: rewrite the layout header and reset the
// lane rings a dead predecessor left behind, spawn the worker (a re-exec of
// the current binary in worker mode, with the socketpair child end, the
// shared region, the submit doorbell and one completion doorbell per lane
// inherited at fixed fd numbers), and await its one acknowledgement. The
// header carries any registered payload-ring geometry, so the fresh worker
// serves slot crossings immediately.
func (t *ProcTransport) ensureEpochLocked() (*procEpoch, error) {
	if t.closed.Load() {
		return nil, ErrTransportClosed
	}
	if ep := t.epoch.Load(); ep != nil {
		if !ep.failed.Load() {
			return ep, nil
		}
		t.teardownEpochLocked(ep, true)
	}
	if err := t.ensureShmLocked(); err != nil {
		return nil, err
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("xpc: locate executable for worker re-exec: %w", err)
	}
	lanes := t.laneCount()
	dir, rings, err := carveLanes(t.lay.lanes.of(t.shm.mem), lanes, t.descEntries, descSlotBytes)
	if err != nil {
		return nil, err
	}
	// Bind the kernel side's shared state onto its shm window before the
	// worker can touch it: cells written before the transport bound are
	// copied in, and a respawn rebinding the same window is a no-op (the
	// area — and the driver state in it — survives worker epochs).
	if t.lay.state.n > 0 {
		if r := t.rt.Load(); r != nil {
			if serr := r.InstallSharedState(t.lay.state.of(t.shm.mem)); serr != nil {
				return nil, serr
			}
		}
	}
	// Everything the worker reads as it boots is written before it starts:
	// the whole header, from the kernel side's own values (a dead worker may
	// have scribbled on it), and zeroed lane positions and parked flag. The
	// trace rings are described only when this epoch traces, and their
	// positions are deliberately NOT reset — the flight recorder's timeline
	// spans worker respawns (the gap between the old worker's last record
	// and the new one's first IS the outage).
	l, rec := t.lay, t.epochRecorderLocked()
	if rec == nil {
		l.trace, l.traceRings, l.traceEntries = area{off: l.trace.off}, 0, 0
	}
	var geom uint64
	if reg := t.reg.Load(); reg != nil {
		geom = reg.word()
	}
	t.hdr.store(l, geom)
	dir.parked.Store(0)
	for i := range rings {
		rings[i].sub.reset()
		rings[i].cmp.reset()
	}
	// One socketpair each for the control socket, the submit doorbell and
	// every lane's completion doorbell. The children are inherited at fd 3
	// and 5 around the shared region at 4, the lane doorbells from fd 6.
	parents, children := make([]*os.File, 2+lanes), make([]*os.File, 2+lanes)
	closeAll := func(files []*os.File) {
		for _, f := range files {
			if f != nil {
				f.Close()
			}
		}
	}
	for i := range parents {
		if parents[i], children[i], err = socketPair(); err != nil {
			closeAll(parents)
			closeAll(children)
			return nil, err
		}
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), workerEnv+"=1")
	cmd.ExtraFiles = append([]*os.File{children[0], t.shm.file}, children[1:]...)
	cmd.Stderr = os.Stderr
	err = cmd.Start()
	closeAll(children)
	if err != nil {
		closeAll(parents)
		return nil, fmt.Errorf("xpc: spawn decaf worker: %w", err)
	}
	parent, bellParent, laneParents := parents[0], parents[1], parents[2:]
	w := &procWorker{cmd: cmd, sock: parent, bell: bellParent, exited: make(chan struct{})}
	go func() {
		_ = cmd.Wait()
		w.dead.Store(true)
		close(w.exited)
	}()
	ep := &procEpoch{
		w:     w,
		pid:   cmd.Process.Pid,
		dir:   dir,
		bell:  &fdDoorbell{f: bellParent},
		lanes: make([]*procLane, lanes),
	}
	for i := range ep.lanes {
		ep.lanes[i] = &procLane{
			idx:  uint32(i),
			sub:  rings[i].sub,
			cmp:  rings[i].cmp,
			bell: &fdDoorbell{f: laneParents[i]},
			ids:  make([]uint64, t.cfg.Batch),
			sums: make([]uint64, t.cfg.Batch),
		}
		if rec != nil {
			ep.lanes[i].tr = t.traceKern[i]
		}
	}
	if err := t.awaitAck(ep); err != nil {
		t.teardownEpochLocked(ep, true)
		return nil, err
	}
	// Count the spawn only once the worker accepted its layout: a worker
	// that died during its own setup never served a crossing and must not
	// inflate the respawn metric the CI gate pins.
	t.spawns.Add(1)
	t.epoch.Store(ep)
	return ep, nil
}

// awaitAck reads the one frame a fresh worker sends, unsolicited: the
// acknowledgement that it accepted the layout header and serves its lanes.
// A read error or timeout is the worker's death; a failing status is its
// refusal, with the worker's reason.
func (t *ProcTransport) awaitAck(ep *procEpoch) error {
	// The parent end is poller-registered (socketPair), so the deadline
	// takes effect.
	_ = ep.w.sock.SetReadDeadline(time.Now().Add(procWireTimeout))
	ack, n, err := readWireFrame(ep.w.sock)
	if err != nil {
		return ep.death(err)
	}
	if r := t.rt.Load(); r != nil {
		r.state().cell(0).wireBytesIn.Add(uint64(n))
	}
	switch {
	case ack.Kind != xdr.FrameComplete:
		return fmt.Errorf("xpc: proc worker protocol: got %v, want the layout acknowledgement", ack.Kind)
	case ack.Status != wireStatusOK:
		return &LayoutRefusal{PID: ep.pid, Reason: ack.Name}
	}
	return nil
}

// epochRecorderLocked resolves the flight recorder a fresh epoch should
// trace into: non-nil only when trace rings were carved AND the bound
// runtime has a tracer installed. First resolution hands the recorder every
// shm ring (kernel lanes + worker) for draining and accounting.
func (t *ProcTransport) epochRecorderLocked() *trace.Recorder {
	if t.traceKern == nil {
		return nil
	}
	rt := t.rt.Load()
	if rt == nil {
		return nil
	}
	rec := rt.Tracer()
	if rec == nil {
		return nil
	}
	if !t.traceAttached {
		rec.Attach(t.traceKern...)
		rec.Attach(t.traceWorker)
		t.traceAttached = true
	}
	return rec
}

// readWireFrame reads one length-prefixed frame from r, returning the frame
// and the bytes it took.
func readWireFrame(r io.Reader) (xdr.Frame, int, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return xdr.Frame{}, 0, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > xdr.MaxFrameSize {
		return xdr.Frame{}, 0, fmt.Errorf("frame length %d exceeds max %d", n, xdr.MaxFrameSize)
	}
	buf := make([]byte, 4+int(n))
	copy(buf, hdr[:])
	if _, err := io.ReadFull(r, buf[4:]); err != nil {
		return xdr.Frame{}, 0, err
	}
	return xdr.DecodeFrame(buf)
}

// killWorkerOnFault makes a decaf fault physical: the worker process is
// SIGKILLed, exactly as the crashed decaf driver's process would die.
func (t *ProcTransport) killWorkerOnFault() {
	if ep := t.epoch.Load(); ep != nil {
		t.retireEpoch(ep)
	}
}

// KillWorker SIGKILLs the worker process without telling the transport —
// the external `kill -9` scenario. The death is detected on the next wire
// operation, which surfaces it as a contained fault. Tests and chaos
// harnesses use it; it reports whether a worker was running.
func (t *ProcTransport) KillWorker() bool {
	ep := t.epoch.Load()
	if ep == nil || ep.w.cmd.Process == nil {
		return false
	}
	_ = ep.w.cmd.Process.Kill()
	<-ep.w.exited
	return true
}

// RespawnWorker implements WorkerRespawner: discard any current worker and
// start a fresh one, whose layout header carries the ring registration. The
// recovery supervisor calls it between teardown and journal replay, so the
// replayed crossings land on a process that was actually restarted.
func (t *ProcTransport) RespawnWorker() error {
	t.lockControl()
	defer t.mu.Unlock()
	if t.closed.Load() {
		return ErrTransportClosed
	}
	if ep := t.epoch.Load(); ep != nil {
		t.teardownEpochLocked(ep, true)
	}
	_, err := t.ensureEpochLocked()
	return err
}

// WorkerPID reports the live worker's process id (0 when none is running).
func (t *ProcTransport) WorkerPID() int {
	if ep := t.epoch.Load(); ep != nil {
		return ep.pid
	}
	return 0
}

// fillStats implements the counters snapshot hook, lock-free so a metrics
// scrape never waits behind a respawn: respawns beyond the first spawn,
// observed deaths and current liveness; the descriptor rings' entries per
// direction and the longest run of frames published to one lane's submit
// ring at once, which bounds its occupancy; and the lanes' total claims,
// spills to the contended fallback lane and peak of simultaneously held
// lanes.
func (t *ProcTransport) fillStats(c *Counters) {
	if n := t.spawns.Load(); n > 0 {
		c.WorkerRespawns = n - 1
	}
	ep := t.epoch.Load()
	c.WorkerDeaths, c.WorkerAlive = t.deaths.Load(), ep != nil && !ep.failed.Load()
	c.DescRingEntries, c.DescRingPeak = uint64(t.descEntries), t.descPeak.Load()
	c.LaneAcquisitions, c.LaneSpills, c.LaneActivePeak = t.laneAcq.Load(), t.laneSpills.Load(), t.laneActivePeak.Load()
}

// Close stops the worker (closing its socket, which it reads as EOF and
// exits 0; SIGKILL after a grace period) and releases the shared region. Close is idempotent;
// SetTransport calls it when replacing the transport.
func (t *ProcTransport) Close() error {
	t.lockControl()
	defer t.mu.Unlock()
	if t.closed.Load() {
		return nil
	}
	t.closed.Store(true)
	if ep := t.epoch.Load(); ep != nil && !ep.torn {
		w := ep.w
		ep.failed.Store(true)
		_ = w.sock.Close()
		select {
		case <-w.exited:
		case <-time.After(2 * time.Second):
			if w.cmd.Process != nil {
				_ = w.cmd.Process.Kill()
			}
			<-w.exited
		}
		// A polite shutdown is not a death: teardown drains lane claims and
		// closes descriptors, but only a failure path counts toward
		// WorkerDeaths.
		t.teardownEpochLocked(ep, false)
	}
	t.hdr = nil
	if len(t.geoms) == 0 && t.reg.Load() == nil {
		err := t.shm.Close()
		t.shm = nil
		return err
	}
	// Mapped rings sliced from the region may still be referenced by the
	// runtime (SetTransport(nil) in a shutdown path replaces the transport
	// without unregistering the ring): unmapping here would turn any late
	// slot access into a SIGSEGV. Release only the descriptor; the pages
	// go with the process.
	t.shm.closeFile()
	t.shm = nil
	return nil
}
