package xdr

import (
	"errors"
	"fmt"
)

// FrameKind discriminates the messages of the process-separated XPC wire
// protocol: the frames a ProcTransport exchanges with its decaf worker
// process — calls, completions and downcalls in the slots of the
// shared-memory lane rings, control frames over the socketpair. The codec is
// reflection-free — every field is encoded by hand with the XDR primitives —
// because the frame is the per-crossing hot path of a real process boundary.
type FrameKind uint8

// Wire frame kinds.
const (
	// FrameSubmit carries one crossing request to the worker: entry-point
	// name, direction, and either a payload-ring slot descriptor (zero-copy
	// fast path: the bytes stay in the shared mapping) or the payload bytes
	// themselves (copy fallback).
	FrameSubmit FrameKind = 1 + iota
	// FrameComplete acknowledges one frame by ID: Status is zero on
	// success, and Aux carries the worker's 64-bit checksum of the payload it
	// observed (xpc's payloadSum; zero when the frame carried no payload) —
	// the kernel side compares it against its own view, which only matches
	// if the two address spaces really share the bytes.
	FrameComplete
	// FrameRingRegister publishes a payload ring's geometry to the worker:
	// Aux packs slots<<32 | slotSize. The ring's buffers are the shared
	// memory region the worker mapped at startup.
	FrameRingRegister
	// FrameRingRelease withdraws the ring registration (recovery teardown).
	FrameRingRelease
	// FrameShutdown asks the worker to exit cleanly; it is not acknowledged.
	FrameShutdown
	// FrameDescRing publishes the shared-memory descriptor-ring geometry to
	// the worker: Aux packs entries<<32 | slotSize, Lane the lane count. Each
	// lane's two SPSC rings (one per direction) live at the tail of the
	// shared region; once the worker acknowledges, every submit, call,
	// completion and downcall frame rides the rings and the socketpair
	// carries control frames only.
	FrameDescRing
	// FrameTraceRing publishes the flight-recorder trace-ring geometry to
	// the worker: Aux packs entries<<32 | ringCount. The rings live at the
	// very tail of the shared region (behind the descriptor-ring lanes);
	// the worker appends its service-loop events into the last ring, so
	// both processes write one shared timeline. Sent before FrameDescRing
	// when tracing is enabled; a worker that never receives it traces
	// nothing.
	FrameTraceRing
	// FrameCall dispatches one decaf call body to the worker's handler
	// table: Name is the registered handler name, the payload travels like
	// FrameSubmit (slot descriptor or copy bytes), and Aux counts the
	// FrameCall frames remaining after this one in the same chunk (so the
	// worker can skip the rest of an aborting chunk with kernel-side
	// parity). The Inject flag asks the worker to report an injected fault
	// without executing the body. The completion's Status distinguishes
	// executed / failed / faulted / injected / skipped outcomes.
	FrameCall
	// FrameDown is a worker→kernel nested downcall made by an executing
	// handler, published on the completion ring of the call's lane: Name is
	// the registered downcall name, Aux the scalar argument, and ID and
	// Lane echo the FrameCall that is mid-execution. The lane's holder
	// serves it and answers with FrameDownResult before the handler's own
	// completion is written.
	FrameDown
	// FrameDownResult answers a FrameDown on the lane's submit ring: Aux is
	// the downcall's scalar result; a non-zero Status carries the error
	// text in Name.
	FrameDownResult
	// FrameStateMap publishes the shm-backed shared-state area to the
	// worker: Aux packs offset<<32 | length, the offset 64-byte aligned
	// within the shared mapping. Sent before FrameDescRing; the worker
	// binds its handler-visible state cells over that window, so a
	// worker-side Store is immediately visible through the kernel side's
	// own mapping.
	FrameStateMap
)

func (k FrameKind) valid() bool { return k >= FrameSubmit && k <= FrameStateMap }

func (k FrameKind) String() string {
	switch k {
	case FrameSubmit:
		return "submit"
	case FrameComplete:
		return "complete"
	case FrameRingRegister:
		return "ring-register"
	case FrameRingRelease:
		return "ring-release"
	case FrameShutdown:
		return "shutdown"
	case FrameDescRing:
		return "desc-ring"
	case FrameTraceRing:
		return "trace-ring"
	case FrameCall:
		return "call"
	case FrameDown:
		return "down"
	case FrameDownResult:
		return "down-result"
	case FrameStateMap:
		return "state-map"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Frame is one message of the process-separated XPC wire protocol.
type Frame struct {
	Kind FrameKind
	// ID sequences frames; a FrameComplete echoes the ID it acknowledges.
	ID uint64
	// Up is the crossing direction for submit frames (true = upcall).
	Up bool
	// Inject marks a FrameCall whose body must not execute: the kernel
	// side's fault injector elected this call, and the worker acknowledges
	// it as an injected fault instead of dispatching the handler.
	Inject bool
	// Name is the entry-point name for submit frames, or an error message
	// on a non-zero-Status completion.
	Name string
	// Slot references a payload resident in the shared ring (zero value:
	// no slot, see SlotDescriptor.Valid).
	Slot SlotDescriptor
	// Data is the copy-path payload (nil when the payload rides the ring).
	Data []byte
	// Status is the completion outcome: 0 ok, non-zero a worker-side error.
	Status uint32
	// Aux is kind-specific: the observed payload's checksum on FrameComplete
	// (zero: no payload), frames left in the chunk on FrameCall, packed ring
	// geometry (slots<<32 | slotSize) on FrameRingRegister.
	Aux uint64
	// Lane identifies the submission lane a descriptor-ring frame rides: a
	// FrameComplete echoes the lane of the submit it acknowledges (so
	// completions demux without ordering across lanes), and FrameDescRing
	// carries the lane count being carved. ID sequences are per-lane, so
	// (Lane, ID) is the unique key of an in-flight ring crossing.
	Lane uint32
}

// Wire-format limits. Decoders reject frames exceeding them before
// allocating, so a corrupt or hostile length prefix cannot balloon memory.
const (
	// MaxFrameName bounds the entry-point / error string.
	MaxFrameName = 255
	// MaxFramePayload bounds a copy-path payload (comfortably above the
	// largest slot size a ring would otherwise carry).
	MaxFramePayload = 1 << 20
	// frameFixedSize is the encoded size of the fixed fields: kind(1) +
	// flags(1) + nameLen(2) + id(8) + status(4) + aux(8) + lane(4) +
	// slot(12) + dataLen(4).
	frameFixedSize = 44
	// MaxFrameSize bounds one whole frame on the wire (length prefix
	// excluded).
	MaxFrameSize = frameFixedSize + MaxFrameName + 3 + MaxFramePayload + 3
)

// Frame codec errors.
var (
	// ErrFrameTooBig rejects encoding a frame whose name or payload
	// exceeds the wire limits.
	ErrFrameTooBig = errors.New("xdr: frame exceeds wire limits")
	// ErrFrameCorrupt rejects a frame that is structurally invalid:
	// unknown kind, reserved flag bits, or a length prefix that does not
	// match its contents. Truncated input surfaces as ErrShortBuffer.
	ErrFrameCorrupt = errors.New("xdr: corrupt frame")
)

const (
	frameFlagUp     = 0x01
	frameFlagInject = 0x02
)

// FrameWireSize reports the exact bytes AppendFrame would emit for f,
// including the 4-byte length prefix. Callers encoding into fixed-size
// descriptor-ring slots use it to prove the encode cannot spill (and so
// cannot reallocate) before touching the slot.
func FrameWireSize(f Frame) int {
	return 4 + frameFixedSize + len(f.Name) + pad(len(f.Name)) + len(f.Data) + pad(len(f.Data))
}

// AppendFrame encodes f with a length prefix, appending to dst. The name
// and payload bytes are copied into the output, so the frame does not alias
// caller memory once encoded — mutating the source slice afterwards cannot
// corrupt a frame already on (or headed for) the wire.
func AppendFrame(dst []byte, f Frame) ([]byte, error) {
	if !f.Kind.valid() {
		return dst, fmt.Errorf("%w: kind %d", ErrFrameCorrupt, f.Kind)
	}
	if len(f.Name) > MaxFrameName || len(f.Data) > MaxFramePayload {
		return dst, fmt.Errorf("%w: name %dB, payload %dB", ErrFrameTooBig, len(f.Name), len(f.Data))
	}
	var flags byte
	if f.Up {
		flags |= frameFlagUp
	}
	if f.Inject {
		flags |= frameFlagInject
	}
	body := frameFixedSize + len(f.Name) + pad(len(f.Name)) + len(f.Data) + pad(len(f.Data))
	e := Encoder{buf: dst}
	e.PutUint32(uint32(body))
	e.buf = append(e.buf, byte(f.Kind), flags, byte(len(f.Name)>>8), byte(len(f.Name)))
	e.PutUint64(f.ID)
	e.PutUint32(f.Status)
	e.PutUint64(f.Aux)
	e.PutUint32(f.Lane)
	e.PutSlotDescriptor(f.Slot)
	e.PutUint32(uint32(len(f.Data)))
	e.PutFixedString(f.Name)
	e.PutFixedOpaque(f.Data)
	return e.buf, nil
}

// DecodeFrame decodes one length-prefixed frame from the start of data,
// returning the frame and the bytes consumed. The decode is strict — the
// length prefix must match the frame's contents exactly, unknown kinds and
// reserved flag bits are rejected — and never panics on truncated or corrupt
// input. Name and Data are copied out of the input buffer, so the frame may
// outlive it — and so a peer that can still write the buffer (the kernel
// side reads completions out of memory the untrusted worker maps) cannot
// change a frame after it was validated.
func DecodeFrame(data []byte) (Frame, int, error) {
	f, name, n, err := DecodeFrameView(data)
	if err != nil {
		return Frame{}, 0, err
	}
	f.Name = string(name)
	if f.Data != nil {
		f.Data = append([]byte(nil), f.Data...)
	}
	return f, n, nil
}

// DecodeFrameView is DecodeFrame without the copies, for a consumer that is
// done with the frame before the buffer is reused (the worker serving a
// submit-ring slot): the same validation, but f.Data and the returned name
// alias data and are valid only as long as data is. f.Name stays empty — a
// Go string cannot borrow bytes.
func DecodeFrameView(data []byte) (f Frame, name []byte, n int, err error) {
	d := Decoder{buf: data}
	body, err := d.Uint32()
	if err != nil {
		return Frame{}, nil, 0, err
	}
	if body > MaxFrameSize {
		return Frame{}, nil, 0, fmt.Errorf("%w: length %d exceeds max %d", ErrFrameCorrupt, body, MaxFrameSize)
	}
	if int(body) < frameFixedSize {
		return Frame{}, nil, 0, fmt.Errorf("%w: length %d below fixed size %d", ErrFrameCorrupt, body, frameFixedSize)
	}
	if d.Remaining() < int(body) {
		return Frame{}, nil, 0, fmt.Errorf("%w: frame needs %d bytes, have %d", ErrShortBuffer, body, d.Remaining())
	}
	hdr, _ := d.take(4)
	f.Kind = FrameKind(hdr[0])
	if !f.Kind.valid() {
		return Frame{}, nil, 0, fmt.Errorf("%w: kind %d", ErrFrameCorrupt, hdr[0])
	}
	flags := hdr[1]
	if flags&^byte(frameFlagUp|frameFlagInject) != 0 {
		return Frame{}, nil, 0, fmt.Errorf("%w: reserved flag bits %#x", ErrFrameCorrupt, flags)
	}
	f.Up = flags&frameFlagUp != 0
	f.Inject = flags&frameFlagInject != 0
	nameLen := int(hdr[2])<<8 | int(hdr[3])
	if nameLen > MaxFrameName {
		return Frame{}, nil, 0, fmt.Errorf("%w: name length %d", ErrFrameCorrupt, nameLen)
	}
	if f.ID, err = d.Uint64(); err != nil {
		return Frame{}, nil, 0, err
	}
	if f.Status, err = d.Uint32(); err != nil {
		return Frame{}, nil, 0, err
	}
	if f.Aux, err = d.Uint64(); err != nil {
		return Frame{}, nil, 0, err
	}
	if f.Lane, err = d.Uint32(); err != nil {
		return Frame{}, nil, 0, err
	}
	if f.Slot, err = d.SlotDescriptor(); err != nil {
		return Frame{}, nil, 0, err
	}
	dataLen, err := d.Uint32()
	if err != nil {
		return Frame{}, nil, 0, err
	}
	if dataLen > MaxFramePayload {
		return Frame{}, nil, 0, fmt.Errorf("%w: payload length %d", ErrFrameCorrupt, dataLen)
	}
	want := frameFixedSize + nameLen + pad(nameLen) + int(dataLen) + pad(int(dataLen))
	if int(body) != want {
		return Frame{}, nil, 0, fmt.Errorf("%w: length prefix %d, contents need %d", ErrFrameCorrupt, body, want)
	}
	// The length checks above cover every byte taken from here on. Capacity
	// is clipped so an append to a view cannot write into the buffer.
	name, _ = d.take(nameLen + pad(nameLen))
	name = name[:nameLen:nameLen]
	if dataLen > 0 {
		f.Data, _ = d.take(int(dataLen) + pad(int(dataLen)))
		f.Data = f.Data[:dataLen:dataLen]
	}
	return f, name, d.off, nil
}
