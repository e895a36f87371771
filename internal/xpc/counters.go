package xpc

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counters accumulate crossing statistics — the source of the Table 3
// "User/Kernel Crossings" column and the §4.2 decaf-invocation counts.
type Counters struct {
	// Upcalls counts kernel→user crossings (one per batched flush, however
	// many calls it carries).
	Upcalls uint64
	// Downcalls counts user→kernel crossings.
	Downcalls uint64
	// LibraryCalls counts direct decaf→library scalar calls.
	LibraryCalls uint64
	// BytesKernelUser is the total marshaled bytes across the process
	// boundary.
	BytesKernelUser uint64
	// BytesCJava is the total marshaled bytes across the language boundary.
	BytesCJava uint64
	// Batches counts crossings that coalesced more than one call.
	Batches uint64
	// BatchedCalls counts the calls delivered inside those batches.
	BatchedCalls uint64
	// PerCall counts invocations per entry-point name, batched or not.
	PerCall map[string]uint64

	// Submissions counts calls admitted through the submit/complete API
	// (every Upcall, Downcall and Batch call flows through it).
	Submissions uint64
	// Faults counts contained decaf-side panics (each failed only its own
	// Completion under the async transport).
	Faults uint64
	// FaultsInjected counts faults thrown by the installed fault injector —
	// a subset of Faults. Zero unless a test or benchmark armed injection.
	FaultsInjected uint64
	// FaultsByCall breaks Faults down per entry-point name, the signal a
	// recovery supervisor uses to attribute crashes.
	FaultsByCall map[string]uint64
	// Stall is the caller-visible crossing stall: virtual time submitting
	// contexts slept inside inline crossings plus what waiters were charged
	// catching up to async completions. This is the cost the async
	// transport exists to take off the caller's timeline.
	Stall time.Duration
	// QueueWait is total virtual time submissions waited behind earlier
	// work before their crossing started (async transports; zero inline).
	QueueWait time.Duration
	// CrossTime is the total virtual crossing cost accounted to
	// completions — under the async transport this is the decaf-side
	// timeline's load, the cost that moved off the callers.
	CrossTime time.Duration

	// BytesPayloadCopied is the total opaque payload bytes that crossed by
	// copy (no registered ring, ring exhausted, or a payload over the ring's
	// slot size) — counted once per payload however many legs it was charged.
	BytesPayloadCopied uint64
	// BytesPayloadDirect is the total payload bytes that crossed by slot
	// reference: resident in the registered ring, only their twelve-byte
	// descriptors marshaled.
	BytesPayloadDirect uint64
	// CopiedTransfers / DirectTransfers count the payloads behind those two
	// byte totals.
	CopiedTransfers uint64
	DirectTransfers uint64

	// SyscallCrossings counts syscalls a process-separated transport spent
	// moving crossings. Every call — downcall-making bodies included — rides
	// the shared-memory lanes, so the only such syscalls are doorbells: it
	// equals DoorbellWakeups. Zero under the in-process transports, and — the
	// point of the descriptor rings — far below one per packet in a proc
	// steady state, where the doorbell stays silent.
	SyscallCrossings uint64
	// RingCrossings counts coalesced chunks that crossed through the
	// shared-memory descriptor rings: under ProcTransport, every chunk.
	RingCrossings uint64
	// DoorbellWakeups counts doorbell syscalls — a byte written because the
	// peer had declared itself parked (or a parked wait that a byte ended).
	// The steady-state ratio DoorbellWakeups/RingCrossings is the measure of
	// how often the rings actually needed the slow path.
	DoorbellWakeups uint64
	// WireBytesOut / WireBytesIn total the framed bytes a process-separated
	// transport moved over its socketpair: control frames only (the worker
	// handshake, payload-ring registration) and their acknowledgements. No
	// crossing moves wire bytes, so both stay flat in a steady state.
	WireBytesOut uint64
	WireBytesIn  uint64
	// WorkerServedCalls counts call bodies that executed to completion (or
	// failed, or faulted) in the worker process — dispatched through the
	// handler table rather than run as kernel-resident closures. Injected
	// faults do not count: the worker skips the body. Zero under every
	// in-process transport; under ProcTransport this is the proof that
	// worker-side execution is live.
	WorkerServedCalls uint64
	// WorkerDowncalls counts nested downcalls served on behalf of
	// worker-resident handler bodies: each is a FrameDown round trip from
	// the worker mid-call back into the kernel, over the rings of the lane
	// the call was claimed on.
	WorkerDowncalls uint64

	// InFlight is a gauge: submissions admitted but not yet completed.
	InFlight int64
	// QueueLen is a gauge: submissions currently in the async ring.
	QueueLen int64
	// QueuePeak is the high-water mark of QueueLen.
	QueuePeak int64

	// Payload-ring state, populated when a ring is registered. Like the
	// gauges above these track live ring state, not the counter epoch:
	// ResetCounters does not zero them.
	//
	// RingCapacity and RingInUse are the registered ring's slot count and
	// current occupancy; RingPeak is the occupancy high-water mark;
	// RingExhausted counts acquisitions that fell back to the copy path;
	// RingStale counts descriptor validation failures (zero in a correct
	// driver).
	RingCapacity  int64
	RingInUse     int64
	RingPeak      int64
	RingExhausted uint64
	RingStale     uint64

	// Worker-process state, populated when the transport runs the decaf
	// side in a separate process (ProcTransport). Live transport-lifetime
	// gauges, like the ring fields: ResetCounters does not zero them.
	//
	// WorkerRespawns counts fresh worker processes started after the first
	// spawn (each one a physical driver restart); WorkerDeaths counts
	// worker processes observed dead or killed; WorkerAlive reports whether
	// a worker is currently running.
	WorkerRespawns uint64
	WorkerDeaths   uint64
	WorkerAlive    bool

	// Descriptor-ring state, populated when the transport crosses through
	// shared-memory descriptor rings (ProcTransport). Transport-lifetime
	// gauges like the worker fields: ResetCounters does not zero them.
	//
	// DescRingEntries is the configured slot count per direction;
	// DescRingPeak is the submit ring's occupancy high-water mark.
	DescRingEntries uint64
	DescRingPeak    uint64

	// Submission-lane state, populated when the transport shards its
	// descriptor rings into concurrent submission lanes (ProcTransport).
	// Transport-lifetime gauges like the worker fields: ResetCounters does
	// not zero them.
	//
	// LaneAcquisitions counts successful lane claims (one per ring crossing);
	// LaneSpills counts claims that found every regular lane busy and fell
	// back to the contended spill lane — a sustained nonzero rate means more
	// submitters than lanes; LaneActivePeak is the high-water mark of
	// simultaneously held lanes, the observed submission concurrency.
	LaneAcquisitions uint64
	LaneSpills       uint64
	LaneActivePeak   uint64

	// Flight-recorder state, populated when a tracer is installed
	// (Runtime.SetTracer). Recorder-lifetime gauges like the worker fields:
	// ResetCounters does not zero them.
	//
	// TraceEvents counts records published across the host ring and every
	// attached shared-memory trace ring; TraceDropped counts records
	// discarded because a ring wrapped before the collector drained it — the
	// flight recorder is lossy-by-design and never blocks the hot path.
	TraceEvents  uint64
	TraceDropped uint64
}

// Trips reports total user/kernel call/return trips (upcalls + downcalls),
// the paper's crossing metric. A batched flush is one trip.
func (c Counters) Trips() uint64 { return c.Upcalls + c.Downcalls }

// Calls reports total entry-point invocations delivered across the boundary,
// counting every call inside a batch individually.
func (c Counters) Calls() uint64 {
	var n uint64
	for _, v := range c.PerCall {
		n += v
	}
	return n
}

// CallNames lists the entry points that crossed, sorted.
func (c Counters) CallNames() []string {
	names := make([]string, 0, len(c.PerCall))
	for n := range c.PerCall {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// workerStatser is the snapshot hook a transport owning an external worker
// process implements (ProcTransport): transport-lifetime worker gauges.
type workerStatser interface {
	workerStats() (respawns, deaths uint64, alive bool)
}

// descRingStatser is the snapshot hook a transport crossing through
// shared-memory descriptor rings implements (ProcTransport): configured
// entries per direction and the submit ring's occupancy high-water mark.
type descRingStatser interface {
	descRingStats() (entries, peak uint64)
}

// laneStatser is the snapshot hook a transport sharding submissions over
// concurrent lanes implements (ProcTransport): claim, spill and occupancy
// gauges for the lock-free lane table.
type laneStatser interface {
	laneStats() (acquisitions, spills, activePeak uint64)
}

// counterShards is the number of independently updated counter cells. Distinct
// entry points hash to distinct cells, so concurrent crossings of different
// calls never touch the same cache line.
const counterShards = 8

// counterCell is one shard of the runtime's statistics. All fields are
// atomics — the crossing fast path takes no lock — and the cell is padded to
// a cache line so shards never false-share.
type counterCell struct {
	upcalls         atomic.Uint64
	downcalls       atomic.Uint64
	libraryCalls    atomic.Uint64
	bytesKernelUser atomic.Uint64
	bytesCJava      atomic.Uint64
	batches         atomic.Uint64
	batchedCalls    atomic.Uint64
	submissions     atomic.Uint64
	faults          atomic.Uint64
	faultsInjected  atomic.Uint64
	stallNs         atomic.Uint64
	queueWaitNs     atomic.Uint64
	crossNs         atomic.Uint64
	bytesCopied     atomic.Uint64
	bytesDirect     atomic.Uint64
	copiedTransfers atomic.Uint64
	directTransfers atomic.Uint64
	syscallCross    atomic.Uint64
	ringCross       atomic.Uint64
	doorbells       atomic.Uint64
	wireBytesOut    atomic.Uint64
	wireBytesIn     atomic.Uint64
	workerServed    atomic.Uint64
	workerDown      atomic.Uint64
	_               [16]byte
}

// counterState is one epoch of statistics. ResetCounters swaps in a fresh
// state rather than zeroing in place, so resets are atomic with respect to
// concurrent crossings.
type counterState struct {
	cells [counterShards]counterCell
	// perCall maps entry-point name -> *atomic.Uint64. sync.Map is
	// lock-free on the steady-state hit path.
	perCall sync.Map
	// faultsByCall maps entry-point name -> *atomic.Uint64 of contained
	// faults. Touched only on the fault path, never on a healthy crossing.
	faultsByCall sync.Map
}

// shardIndex hashes an entry-point name to a counter cell (FNV-1a).
//
//decaf:hotpath
func shardIndex(name string) int {
	h := uint32(2166136261)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint32(name[i])) * 16777619
	}
	return int(h % counterShards)
}

// cell returns the shard for an entry-point name.
//
//decaf:hotpath
func (s *counterState) cell(name string) *counterCell {
	return &s.cells[shardIndex(name)]
}

// cellCursor resolves counter cells for the calls of one chunk. A chunk's
// calls mostly share one name (a burst of frames through one handler), so
// the cursor hashes a name only when it differs from the previous call's,
// or when ResetCounters swapped the epoch in between: the six counter
// updates along a call's crossing cost one hash per run of equal names, not
// six per call. The epoch is re-read on every use, so a reset still splits
// the counts exactly where it lands.
type cellCursor struct {
	r    *Runtime
	s    *counterState
	name string
	cell *counterCell
}

// at returns the current epoch's cell for name.
//
//decaf:hotpath
func (cc *cellCursor) at(name string) *counterCell {
	// String equality looks at the headers first: a run of calls queued
	// under one name constant never reaches the byte compare.
	if s := cc.r.state(); s != cc.s || name != cc.name {
		cc.s, cc.name, cc.cell = s, name, s.cell(name)
	}
	return cc.cell
}

func (s *counterState) perCallCounter(name string) *atomic.Uint64 {
	if v, ok := s.perCall.Load(name); ok {
		return v.(*atomic.Uint64)
	}
	v, _ := s.perCall.LoadOrStore(name, new(atomic.Uint64))
	return v.(*atomic.Uint64)
}

// state returns the current counter epoch, initializing it on first use.
func (r *Runtime) state() *counterState {
	if s := r.counters.Load(); s != nil {
		return s
	}
	// Benign race: two initializers may allocate; CompareAndSwap keeps one.
	s := &counterState{}
	if r.counters.CompareAndSwap(nil, s) {
		return s
	}
	return r.counters.Load()
}

// countTrip records one single-call crossing.
func (r *Runtime) countTrip(name string, up bool) {
	s := r.state()
	c := s.cell(name)
	if up {
		c.upcalls.Add(1)
	} else {
		c.downcalls.Add(1)
	}
	s.perCallCounter(name).Add(1)
}

// countBatch records one batched crossing delivering the submissions'
// calls. The per-name counters are looked up once per run of equal names.
//
//decaf:hotpath
func (r *Runtime) countBatch(subs []*Submission) {
	s := r.state()
	first := subs[0].Call
	c := s.cell(first.Name)
	if first.Up {
		c.upcalls.Add(1)
	} else {
		c.downcalls.Add(1)
	}
	c.batches.Add(1)
	c.batchedCalls.Add(uint64(len(subs)))
	for i := 0; i < len(subs); {
		name, run := subs[i].Call.Name, 1
		for i+run < len(subs) && subs[i+run].Call.Name == name {
			run++
		}
		s.perCallCounter(name).Add(uint64(run))
		i += run
	}
}

// countLibraryCall records one direct decaf→library scalar call.
func (r *Runtime) countLibraryCall(name string) {
	r.state().cell(name).libraryCalls.Add(1)
}

// noteCompletion records a resolved submission's latency split and fault
// outcome on c, the cell of its name, and feeds the completion observer
// when one is installed.
//
//decaf:hotpath
func (r *Runtime) noteCompletion(c *counterCell, name string, queueWait, crossCost time.Duration, fault bool) {
	if ob := r.completionObserver.Load(); ob != nil {
		(*ob)(name, queueWait, crossCost, fault)
	}
	if queueWait > 0 {
		c.queueWaitNs.Add(uint64(queueWait))
	}
	if crossCost > 0 {
		c.crossNs.Add(uint64(crossCost))
	}
	if fault {
		c.faults.Add(1)
		r.noteFaultBy(name)
	}
}

// noteFaultBy ticks the per-name fault breakdown. Fault path only.
func (r *Runtime) noteFaultBy(name string) {
	s := r.state()
	v, ok := s.faultsByCall.Load(name)
	if !ok {
		v, _ = s.faultsByCall.LoadOrStore(name, new(atomic.Uint64))
	}
	v.(*atomic.Uint64).Add(1)
}

// noteInjected records one fault thrown by the installed injector.
func (r *Runtime) noteInjected(name string) {
	r.state().cell(name).faultsInjected.Add(1)
}

// noteStall records caller-visible crossing stall: sleep charged to a
// submitting context by an inline crossing, or to a waiter catching up to
// an async completion.
func (r *Runtime) noteStall(name string, d time.Duration) {
	if d > 0 {
		r.state().cell(name).stallNs.Add(uint64(d))
	}
}

// noteEnqueued/noteDequeued maintain the async ring-occupancy gauges.
func (r *Runtime) noteEnqueued(n int) {
	cur := r.queueLen.Add(int64(n))
	for {
		peak := r.queuePeak.Load()
		if cur <= peak || r.queuePeak.CompareAndSwap(peak, cur) {
			return
		}
	}
}

func (r *Runtime) noteDequeued(n int) { r.queueLen.Add(int64(-n)) }

// noteCopied records one payload of n bytes crossing by copy (the
// fallback path).
//
//decaf:hotpath
func (c *counterCell) noteCopied(n int) {
	c.bytesCopied.Add(uint64(n))
	c.copiedTransfers.Add(1)
}

// noteDirect records one payload of n bytes crossing by slot reference
// (the zero-copy fast path).
//
//decaf:hotpath
func (c *counterCell) noteDirect(n int) {
	c.bytesDirect.Add(uint64(n))
	c.directTransfers.Add(1)
}

// noteRingCrossing records one coalesced chunk crossing through the
// shared-memory descriptor rings — the syscall-free steady-state path.
//
//decaf:hotpath
func (r *Runtime) noteRingCrossing(name string) {
	r.state().cell(name).ringCross.Add(1)
}

// noteDoorbells records n doorbell syscalls spent waking a parked peer (or
// being woken). They are the only syscalls a crossing can pay, so the same
// n feeds SyscallCrossings — in a healthy steady state both stay near zero
// while RingCrossings climbs.
//
//decaf:hotpath
func (r *Runtime) noteDoorbells(name string, n int) {
	c := r.state().cell(name)
	c.doorbells.Add(uint64(n))
	c.syscallCross.Add(uint64(n))
}

// noteWire accumulates framed bytes moved over the worker socketpair.
//
//decaf:hotpath
func (r *Runtime) noteWire(name string, out, in int) {
	c := r.state().cell(name)
	if out > 0 {
		c.wireBytesOut.Add(uint64(out))
	}
	if in > 0 {
		c.wireBytesIn.Add(uint64(in))
	}
}

// noteWorkerDowncall ticks the nested-downcall counter: one FrameDown from
// an executing worker-side handler served by the kernel.
//
//decaf:hotpath
func (r *Runtime) noteWorkerDowncall(name string) {
	r.state().cell(name).workerDown.Add(1)
}

// addBytes accumulates marshaled byte counts on the shard keyed by name
// (a shared-object type name).
func (r *Runtime) addBytes(name string, ku, cj int) {
	r.state().cell(name).addBytes(ku, cj)
}

// addBytes accumulates marshaled byte counts.
//
//decaf:hotpath
func (c *counterCell) addBytes(ku, cj int) {
	if ku > 0 {
		c.bytesKernelUser.Add(uint64(ku))
	}
	if cj > 0 {
		c.bytesCJava.Add(uint64(cj))
	}
}

// Counters returns a snapshot of the runtime's crossing statistics.
func (r *Runtime) Counters() Counters {
	s := r.state()
	var snap Counters
	for i := range s.cells {
		c := &s.cells[i]
		snap.Upcalls += c.upcalls.Load()
		snap.Downcalls += c.downcalls.Load()
		snap.LibraryCalls += c.libraryCalls.Load()
		snap.BytesKernelUser += c.bytesKernelUser.Load()
		snap.BytesCJava += c.bytesCJava.Load()
		snap.Batches += c.batches.Load()
		snap.BatchedCalls += c.batchedCalls.Load()
		snap.Submissions += c.submissions.Load()
		snap.Faults += c.faults.Load()
		snap.FaultsInjected += c.faultsInjected.Load()
		snap.Stall += time.Duration(c.stallNs.Load())
		snap.QueueWait += time.Duration(c.queueWaitNs.Load())
		snap.CrossTime += time.Duration(c.crossNs.Load())
		snap.BytesPayloadCopied += c.bytesCopied.Load()
		snap.BytesPayloadDirect += c.bytesDirect.Load()
		snap.CopiedTransfers += c.copiedTransfers.Load()
		snap.DirectTransfers += c.directTransfers.Load()
		snap.SyscallCrossings += c.syscallCross.Load()
		snap.RingCrossings += c.ringCross.Load()
		snap.DoorbellWakeups += c.doorbells.Load()
		snap.WireBytesOut += c.wireBytesOut.Load()
		snap.WireBytesIn += c.wireBytesIn.Load()
		snap.WorkerServedCalls += c.workerServed.Load()
		snap.WorkerDowncalls += c.workerDown.Load()
	}
	snap.InFlight = r.inFlight.Load()
	snap.QueueLen = r.queueLen.Load()
	snap.QueuePeak = r.queuePeak.Load()
	if wt, ok := r.Transport().(workerStatser); ok {
		snap.WorkerRespawns, snap.WorkerDeaths, snap.WorkerAlive = wt.workerStats()
	}
	if dt, ok := r.Transport().(descRingStatser); ok {
		snap.DescRingEntries, snap.DescRingPeak = dt.descRingStats()
	}
	if lt, ok := r.Transport().(laneStatser); ok {
		snap.LaneAcquisitions, snap.LaneSpills, snap.LaneActivePeak = lt.laneStats()
	}
	if rec := r.tracer.Load(); rec != nil {
		snap.TraceEvents, snap.TraceDropped = rec.Stats()
	}
	if ring := r.payloadRing.Load(); ring != nil {
		snap.RingCapacity = int64(ring.Slots())
		snap.RingInUse = ring.InUse()
		snap.RingPeak = ring.Peak()
		snap.RingExhausted = ring.Exhausted()
		snap.RingStale = ring.Stale()
	}
	snap.PerCall = make(map[string]uint64)
	s.perCall.Range(func(k, v any) bool {
		snap.PerCall[k.(string)] = v.(*atomic.Uint64).Load()
		return true
	})
	snap.FaultsByCall = make(map[string]uint64)
	s.faultsByCall.Range(func(k, v any) bool {
		snap.FaultsByCall[k.(string)] = v.(*atomic.Uint64).Load()
		return true
	})
	return snap
}

// ResetCounters zeroes the crossing statistics (the harness calls this
// between the initialization and steady-state phases of a workload) by
// swapping in a fresh epoch.
func (r *Runtime) ResetCounters() {
	r.counters.Store(&counterState{})
}
