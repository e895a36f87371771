package xpc

import (
	"sort"
	"sync/atomic"
	"time"

	"decafdrivers/internal/decaf/registry"
)

// Counters accumulate crossing statistics — the source of the Table 3
// "User/Kernel Crossings" column and the §4.2 decaf-invocation counts.
type Counters struct {
	// Upcalls counts kernel→user crossings (one per batched flush, however
	// many calls it carries).
	Upcalls uint64
	// Downcalls counts user→kernel crossings.
	Downcalls uint64
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
	// (every handler upcall and every downcall flows through it).
	Submissions uint64
	// Faults counts contained decaf-side panics (each failed its own
	// Completion and aborted the rest of its crossing).
	Faults uint64
	// FaultsInjected counts faults thrown by the installed fault injector —
	// a subset of Faults. Zero unless a test or benchmark armed injection.
	FaultsInjected uint64
	// FaultsByCall breaks Faults down per entry-point name, the signal a
	// recovery supervisor uses to attribute crashes.
	FaultsByCall map[string]uint64
	// Stall is the caller-visible crossing stall: virtual time submitting
	// contexts slept inside their crossings.
	Stall time.Duration
	// CrossTime is the total virtual crossing cost accounted to
	// completions.
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
	// the shared-memory lanes, so the only such syscalls are doorbells: the
	// snapshot fills it from DoorbellWakeups. Zero under the in-process
	// transports, and — the point of the descriptor rings — far below one
	// per packet in a proc steady state, where the doorbell stays silent.
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
	// transport moved over its socketpair. The worker learns its layout from
	// the shared region itself, so WireBytesOut is always zero (kept for
	// readers that sum both), and each worker epoch adds one
	// acknowledgement to WireBytesIn. No crossing moves wire bytes.
	WireBytesOut uint64
	WireBytesIn  uint64
	// WorkerServedCalls counts call bodies that executed to completion (or
	// failed, or faulted) in the worker process rather than inline in the
	// kernel process. Injected
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

	// Payload-ring state, populated when a ring is registered. Like the
	// gauge above these track live ring state, not the counter epoch:
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
	// DescRingPeak is the longest run of frames the kernel side published
	// to one submit ring at once. A run starts on an empty ring, so this
	// bounds the submit ring's occupancy high-water mark.
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

// CallNames lists the entry points that crossed, sorted.
func (c Counters) CallNames() []string {
	names := make([]string, 0, len(c.PerCall))
	for n := range c.PerCall {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// statsFiller is the snapshot hook of a transport that owns an external
// worker process, descriptor rings and submission lanes (ProcTransport): it
// fills in their transport-lifetime gauges.
type statsFiller interface {
	fillStats(c *Counters)
}

// counterShards is the number of independently updated counter cells. An
// entry point's cell is picked by its index, so concurrent crossings of
// neighbouring handlers never touch the same cache line.
const counterShards = 8

// counterCell is one shard of the runtime's statistics. All fields are
// atomics — the crossing fast path takes no lock — and the cell is padded to
// a cache line so shards never false-share.
type counterCell struct {
	upcalls         atomic.Uint64
	downcalls       atomic.Uint64
	bytesKernelUser atomic.Uint64
	bytesCJava      atomic.Uint64
	batches         atomic.Uint64
	batchedCalls    atomic.Uint64
	submissions     atomic.Uint64
	faults          atomic.Uint64
	faultsInjected  atomic.Uint64
	stallNs         atomic.Uint64
	crossNs         atomic.Uint64
	bytesCopied     atomic.Uint64
	bytesDirect     atomic.Uint64
	copiedTransfers atomic.Uint64
	directTransfers atomic.Uint64
	ringCross       atomic.Uint64
	doorbells       atomic.Uint64
	wireBytesIn     atomic.Uint64
	workerServed    atomic.Uint64
	workerDown      atomic.Uint64
	_               [32]byte
}

// callCount is one entry point's invocations and contained faults.
type callCount struct {
	calls, faults atomic.Uint64
}

// counterState is one epoch of statistics. ResetCounters swaps in a fresh
// state rather than zeroing in place, so resets are atomic with respect to
// concurrent crossings. Every entry point the registry can number has its
// counts in place from the start, so one registered after a reset counts
// like the rest; Counters names them.
type counterState struct {
	cells     [counterShards]counterCell
	handlers  [registry.MaxHandlers]callCount
	downcalls [registry.MaxDowncalls]callCount
}

// cell returns the shard of the entry point with index id.
//
//decaf:hotpath
func (s *counterState) cell(id uint32) *counterCell {
	return &s.cells[id%counterShards]
}

// entry returns the counts of an upcall's handler or a downcall at index id.
//
//decaf:hotpath
func (s *counterState) entry(up bool, id uint32) *callCount {
	if up {
		return &s.handlers[id%registry.MaxHandlers]
	}
	return &s.downcalls[id%registry.MaxDowncalls]
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

// countCrossing records one crossing delivering the submissions' calls: a
// trip on the first call's cell, counted as a batch when it coalesced more
// than one call. The per-call counts are added once per run of equal entry
// points.
//
//decaf:hotpath
func (r *Runtime) countCrossing(subs []*Submission) {
	s := r.state()
	first := subs[0].Call
	c := s.cell(first.id)
	if first.Up {
		c.upcalls.Add(1)
	} else {
		c.downcalls.Add(1)
	}
	if len(subs) > 1 {
		c.batches.Add(1)
		c.batchedCalls.Add(uint64(len(subs)))
	}
	for i := 0; i < len(subs); {
		call, run := subs[i].Call, 1
		for i+run < len(subs) && subs[i+run].Call.id == call.id && subs[i+run].Call.Up == call.Up {
			run++
		}
		s.entry(call.Up, call.id).calls.Add(uint64(run))
		i += run
	}
}

// noteCompletion records a resolved submission's crossing cost and fault
// outcome on c, the cell of its entry point.
//
//decaf:hotpath
func (r *Runtime) noteCompletion(c *counterCell, comp *Completion, crossCost time.Duration, fault bool) {
	if crossCost > 0 {
		c.crossNs.Add(uint64(crossCost))
	}
	if fault {
		c.faults.Add(1)
		r.state().entry(comp.up, comp.id).faults.Add(1)
	}
}

// noteInjected records one fault thrown by the installed injector into the
// handler at index id.
func (r *Runtime) noteInjected(id uint32) {
	r.state().cell(id).faultsInjected.Add(1)
}

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

// noteDoorbells records n doorbell syscalls spent waking a parked peer (or
// being woken). They are the only syscalls a crossing can pay, so they are
// SyscallCrossings too — in a healthy steady state both stay near zero
// while RingCrossings climbs.
//
//decaf:hotpath
func (r *Runtime) noteDoorbells(id uint32, n int) {
	r.state().cell(id).doorbells.Add(uint64(n))
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
		snap.BytesKernelUser += c.bytesKernelUser.Load()
		snap.BytesCJava += c.bytesCJava.Load()
		snap.Batches += c.batches.Load()
		snap.BatchedCalls += c.batchedCalls.Load()
		snap.Submissions += c.submissions.Load()
		snap.Faults += c.faults.Load()
		snap.FaultsInjected += c.faultsInjected.Load()
		snap.Stall += time.Duration(c.stallNs.Load())
		snap.CrossTime += time.Duration(c.crossNs.Load())
		snap.BytesPayloadCopied += c.bytesCopied.Load()
		snap.BytesPayloadDirect += c.bytesDirect.Load()
		snap.CopiedTransfers += c.copiedTransfers.Load()
		snap.DirectTransfers += c.directTransfers.Load()
		snap.RingCrossings += c.ringCross.Load()
		snap.DoorbellWakeups += c.doorbells.Load()
		snap.WireBytesIn += c.wireBytesIn.Load()
		snap.WorkerServedCalls += c.workerServed.Load()
		snap.WorkerDowncalls += c.workerDown.Load()
	}
	snap.SyscallCrossings = snap.DoorbellWakeups
	snap.InFlight = r.inFlight.Load()
	if sf, ok := r.Transport().(statsFiller); ok {
		sf.fillStats(&snap)
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
	snap.PerCall, snap.FaultsByCall = make(map[string]uint64), make(map[string]uint64)
	tally := func(names []string, counts []callCount) {
		for i, name := range names {
			if n := counts[i].calls.Load(); n > 0 {
				snap.PerCall[name] += n
			}
			if n := counts[i].faults.Load(); n > 0 {
				snap.FaultsByCall[name] += n
			}
		}
	}
	tally(registry.Names(), s.handlers[:])
	tally(registry.DowncallNames(), s.downcalls[:])
	return snap
}

// ResetCounters zeroes the crossing statistics (the harness calls this
// between the initialization and steady-state phases of a workload) by
// swapping in a fresh epoch.
func (r *Runtime) ResetCounters() {
	r.counters.Store(&counterState{})
}
