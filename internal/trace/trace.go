// Package trace is the cross-process flight recorder: an allocation-free
// event timeline spanning the kernel side, the decaf worker process, and the
// Go runtime itself. Where internal/xpc's counters aggregate (RingCrossings,
// DoorbellWakeups), the recorder answers "where did THIS submission's latency
// go": every stage of a crossing — claim, enqueue, doorbell, worker dequeue,
// completion, reap — appends a fixed-size binary record stamped with the
// wall clock, and because the per-lane trace rings are carved from the same
// mmap-shared region as the descriptor rings, both sides of the process
// boundary append into one shared timeline.
//
// The design is lossy-by-design: a producer never blocks and never
// allocates. When a ring wraps before the collector drains it, new records
// are dropped and counted (Counters.TraceDropped), exactly like a hardware
// trace buffer. The collector drains on its own goroutine; the exporter
// emits Chrome trace-event JSON loadable in Perfetto (one track per lane,
// per worker, per GC).
package trace

import "encoding/binary"

// Kind discriminates trace events. The zero value is deliberately invalid:
// trace rings start zeroed, so a slot that was never fully written (a torn
// record from a worker killed mid-append) decodes as invalid and is skipped
// rather than exported as garbage.
type Kind uint16

// Event kinds, grouped by the track they render on.
const (
	kindInvalid Kind = iota

	// Kernel-side submission lifecycle (per-lane tracks, SrcKernel).
	KindSubmit     // runtime admitted Arg submissions (host ring)
	KindChunkBegin // lane claimed, chunk crossing begins: ID=first frame id, Arg=chunk len
	KindEnqueue    // a run of the chunk's frames published (the whole chunk, or up to a downcall-making call): ID=first id of the run, Arg=n
	KindDoorbell   // worker was parked; doorbell syscall paid: ID=first id
	KindWake       // completion wait woken by the lane bell Arg times: ID=first id
	KindChunkEnd   // every completion verified, lane released: ID=first id, Arg=n
	KindSpill      // claim spilled to the contended fallback lane

	// Worker-side service loop (per-lane tracks, SrcWorker).
	KindWorkerDequeue  // worker began a lane visit: ID=first frame id served
	KindWorkerComplete // worker finished the visit: ID=first id, Arg=frames served
	KindWorkerPark     // worker scheduler declared parked on the submit doorbell
	KindWorkerWake     // worker scheduler woke

	// Recovery timeline (SrcKernel, recovery track; ID=restart ordinal).
	KindRecFault    // contained fault observed
	KindRecTeardown // quiesce + transport teardown begins
	KindRecRespawn  // worker process respawned
	KindRecReplay   // journal replay begins
	KindRecResume   // runtime resumed
	KindRecFailStop // supervisor gave up (fail-stop)

	// Go runtime events (SrcRuntime, synthesized by the collector).
	KindGCPause    // stop-the-world pause: TS=pause end, Arg=pause ns, ID=cycle
	KindHeapSample // sampled live heap bytes (Arg)
	KindGCCycles   // sampled cumulative GC cycle count (Arg)

	kindMax
)

// String names a kind for exporter labels.
func (k Kind) String() string {
	switch k {
	case KindSubmit:
		return "submit"
	case KindChunkBegin:
		return "chunk-begin"
	case KindEnqueue:
		return "enqueue"
	case KindDoorbell:
		return "doorbell"
	case KindWake:
		return "wake"
	case KindChunkEnd:
		return "chunk-end"
	case KindSpill:
		return "spill"
	case KindWorkerDequeue:
		return "worker-dequeue"
	case KindWorkerComplete:
		return "worker-complete"
	case KindWorkerPark:
		return "worker-park"
	case KindWorkerWake:
		return "worker-wake"
	case KindRecFault:
		return "fault"
	case KindRecTeardown:
		return "teardown"
	case KindRecRespawn:
		return "respawn"
	case KindRecReplay:
		return "replay"
	case KindRecResume:
		return "resume"
	case KindRecFailStop:
		return "fail-stop"
	case KindGCPause:
		return "gc-pause"
	case KindHeapSample:
		return "heap"
	case KindGCCycles:
		return "gc-cycles"
	default:
		return "invalid"
	}
}

// Src identifies which side of the boundary appended a record.
type Src uint8

// Record sources.
const (
	SrcKernel  Src = iota // the kernel-side (parent) process
	SrcWorker             // the decaf worker process
	SrcRuntime            // Go runtime events synthesized by the collector
)

// LaneNone marks an event that belongs to no submission lane (recovery
// spans, GC events, admission counts).
const LaneNone = ^uint16(0)

// Event is one decoded flight-recorder record.
type Event struct {
	// TS is the wall-clock timestamp in nanoseconds since the Unix epoch
	// (time.Now().UnixNano()). Wall clock rather than a process-local
	// monotonic base because two processes append into the timeline: the
	// Unix epoch is the one base both sides share without a handshake.
	TS int64
	// ID correlates the events of one logical span: the chunk's first
	// per-lane frame ID for submission events, the restart ordinal for
	// recovery events, the GC cycle for pauses.
	ID uint64
	// Arg is kind-specific payload (chunk length, pause ns, heap bytes).
	Arg uint64
	// Kind discriminates the event.
	Kind Kind
	// Lane is the submission lane, or LaneNone.
	Lane uint16
	// Src is the side that recorded the event.
	Src Src
}

// RecordBytes is the fixed encoded size of one record: ts(8) + id(8) +
// arg(8) + kind(2) + lane(2) + src(1) + pad(3). Power-of-two rings of
// 32-byte slots keep records cache-line-interior on both sides.
const RecordBytes = 32

// putRecord encodes an event into a 32-byte slot. The kind is written last
// of the discriminating fields only by convention — publication ordering is
// the ring header's job (the slot is invisible until the head advances).
//
//decaf:hotpath
func putRecord(slot []byte, ts int64, id, arg uint64, k Kind, lane uint16, src Src) {
	_ = slot[RecordBytes-1]
	binary.LittleEndian.PutUint64(slot[0:8], uint64(ts))
	binary.LittleEndian.PutUint64(slot[8:16], id)
	binary.LittleEndian.PutUint64(slot[16:24], arg)
	binary.LittleEndian.PutUint16(slot[24:26], uint16(k))
	binary.LittleEndian.PutUint16(slot[26:28], lane)
	slot[28] = byte(src)
	slot[29], slot[30], slot[31] = 0, 0, 0
}

// getRecord decodes a slot, reporting ok=false for a torn or never-written
// record (invalid kind or source). Consumers skip such slots; producers can
// never publish them through Emit.
func getRecord(slot []byte) (Event, bool) {
	var e Event
	e.TS = int64(binary.LittleEndian.Uint64(slot[0:8]))
	e.ID = binary.LittleEndian.Uint64(slot[8:16])
	e.Arg = binary.LittleEndian.Uint64(slot[16:24])
	e.Kind = Kind(binary.LittleEndian.Uint16(slot[24:26]))
	e.Lane = binary.LittleEndian.Uint16(slot[26:28])
	e.Src = Src(slot[28])
	if e.Kind == kindInvalid || e.Kind >= kindMax || e.Src > SrcRuntime {
		return Event{}, false
	}
	return e, true
}
