package xdr

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// FrameKind discriminates the messages of the process-separated XPC wire
// protocol: the frames a ProcTransport exchanges with its decaf worker
// process — calls, completions and downcalls in the slots of the
// shared-memory lane rings, and the worker's one acknowledgement per epoch
// over the socketpair. The frame is the per-crossing hot path of a real
// process boundary, so the codec is reflection-free and walks no fields:
// the 44-byte fixed header sits at fixed offsets, and one length check
// covers all of it, so each field is a single big-endian load or store.
// The bytes are the XDR encoding of the same fields in the same order.
type FrameKind uint8

// Wire frame kinds. Numbers 3–7 and 11 belonged to the socket handshake the
// shared region's layout header replaced; they are retired, never reused,
// and rejected as corrupt.
const (
	// FrameSubmit carries an isolation probe to the worker: a call with no
	// handler behind it (xpc's ProcTransport.CrossChunk) and no name, whose
	// direction and either a payload-ring slot descriptor (zero-copy fast
	// path: the bytes stay in the shared mapping) or the payload bytes
	// themselves (copy fallback) the worker only proves it read.
	FrameSubmit FrameKind = 1
	// FrameComplete acknowledges one frame by ID: Status is zero on
	// success, and Aux carries the worker's 64-bit checksum of the payload it
	// observed (xpc's payloadSum; zero when the frame carried no payload) —
	// the kernel side compares it against its own view, which only matches
	// if the two address spaces really share the bytes. A fresh worker also
	// sends one, unsolicited, on the socketpair: its acceptance of the
	// layout header, or (non-zero Status) its refusal with the reason in
	// Name.
	FrameComplete FrameKind = 2
	// FrameCall dispatches one decaf call body to the worker's handler
	// table: Status is the handler's table index (no name crosses), the
	// payload travels like FrameSubmit (slot descriptor or copy bytes), and
	// Aux counts the FrameCall frames after this one in the same chunk (so
	// the worker can skip the rest of an aborting chunk with kernel-side
	// parity). The Inject flag asks the worker to report an injected fault
	// without executing the body. The completion's Status distinguishes
	// executed / failed / faulted / injected / skipped outcomes.
	FrameCall FrameKind = 8
	// FrameDown is a worker→kernel nested downcall made by an executing
	// handler, published on the completion ring of the call's lane: Name is
	// the registered downcall name, Aux the scalar argument, and ID and
	// Lane echo the FrameCall that is mid-execution. The lane's holder
	// serves it and answers with FrameDownResult before the handler's own
	// completion is written.
	FrameDown FrameKind = 9
	// FrameDownResult answers a FrameDown on the lane's submit ring: Aux is
	// the downcall's scalar result; a non-zero Status carries the error
	// text in Name.
	FrameDownResult FrameKind = 10
)

func (k FrameKind) valid() bool {
	switch k {
	case FrameSubmit, FrameComplete, FrameCall, FrameDown, FrameDownResult:
		return true
	}
	return false
}

func (k FrameKind) String() string {
	switch k {
	case FrameSubmit:
		return "submit"
	case FrameComplete:
		return "complete"
	case FrameCall:
		return "call"
	case FrameDown:
		return "down"
	case FrameDownResult:
		return "down-result"
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
	// Name is the downcall name on FrameDown, or an error message on a
	// non-zero-Status completion. Call and probe frames carry none.
	Name string
	// Slot references a payload resident in the shared ring (zero value:
	// no slot, see SlotDescriptor.Valid).
	Slot SlotDescriptor
	// Data is the copy-path payload (nil when the payload rides the ring).
	Data []byte
	// Status is kind-specific, like Aux: the handler's table index on
	// FrameCall, else the outcome (0 ok, non-zero a worker-side error).
	Status uint32
	// Aux is kind-specific: the observed payload's checksum on FrameComplete
	// (zero: no payload), frames left in the chunk on FrameCall, the scalar
	// argument on FrameDown and the scalar result on FrameDownResult.
	Aux uint64
	// Lane identifies the submission lane a descriptor-ring frame rides: a
	// FrameComplete echoes the lane of the submit it acknowledges (so
	// completions demux without ordering across lanes), and a FrameDown or
	// FrameDownResult the lane of the call it serves. ID sequences are
	// per-lane, so (Lane, ID) is the unique key of an in-flight ring
	// crossing.
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

// Wire offsets of the fixed fields, counted from the length prefix. The
// name starts at frameHdrSize, zero-padded to four bytes, and the payload
// follows it, padded likewise.
const (
	offKind      = 4
	offFlags     = 5
	offNameLen   = 6 // 16 bits
	offID        = 8
	offStatus    = 16
	offAux       = 20
	offLane      = 28
	offSlot      = 32 // index, length, generation
	offDataLen   = 44
	frameHdrSize = 4 + frameFixedSize
)

// AppendFrame encodes f with a length prefix, appending to dst. The name
// and payload bytes are copied into the output, so the frame does not alias
// caller memory once encoded — mutating the source slice afterwards cannot
// corrupt a frame already on (or headed for) the wire.
//
//decaf:hotpath
func AppendFrame(dst []byte, f Frame) ([]byte, error) {
	if !f.Kind.valid() {
		return dst, fmt.Errorf("%w: kind %d", ErrFrameCorrupt, f.Kind)
	}
	if len(f.Name) > MaxFrameName || len(f.Data) > MaxFramePayload {
		return dst, fmt.Errorf("%w: name %dB, payload %dB", ErrFrameTooBig, len(f.Name), len(f.Data))
	}
	dataOff := frameHdrSize + len(f.Name) + pad(len(f.Name))
	size := dataOff + len(f.Data) + pad(len(f.Data))
	n := len(dst)
	if cap(dst)-n < size {
		//decaf:allowalloc only a destination short of one whole frame grows; a ring slot is sized to hold any frame it is given
		dst = append(dst, make([]byte, size)...)
	}
	dst = dst[:n+size]
	b := dst[n:]
	h := (*[frameHdrSize]byte)(b)
	var flags byte
	if f.Up {
		flags |= frameFlagUp
	}
	if f.Inject {
		flags |= frameFlagInject
	}
	binary.BigEndian.PutUint32(h[0:], uint32(size-4))
	h[offKind], h[offFlags] = byte(f.Kind), flags
	binary.BigEndian.PutUint16(h[offNameLen:], uint16(len(f.Name)))
	binary.BigEndian.PutUint64(h[offID:], f.ID)
	binary.BigEndian.PutUint32(h[offStatus:], f.Status)
	binary.BigEndian.PutUint64(h[offAux:], f.Aux)
	binary.BigEndian.PutUint32(h[offLane:], f.Lane)
	binary.BigEndian.PutUint32(h[offSlot:], f.Slot.Index)
	binary.BigEndian.PutUint32(h[offSlot+4:], f.Slot.Length)
	binary.BigEndian.PutUint32(h[offSlot+8:], f.Slot.Generation)
	binary.BigEndian.PutUint32(h[offDataLen:], uint32(len(f.Data)))
	// A reused buffer holds stale bytes: each padded field's last word is
	// zeroed before the field is copied over its front.
	if len(f.Name) > 0 {
		binary.BigEndian.PutUint32(b[dataOff-4:], 0)
		copy(b[frameHdrSize:], f.Name)
	}
	if len(f.Data) > 0 {
		binary.BigEndian.PutUint32(b[size-4:], 0)
		copy(b[dataOff:], f.Data)
	}
	return dst, nil
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
//
//decaf:hotpath
func DecodeFrameView(data []byte) (f Frame, name []byte, n int, err error) {
	if len(data) < 4 {
		return Frame{}, nil, 0, fmt.Errorf("%w: need 4 bytes at offset 0 of %d", ErrShortBuffer, len(data))
	}
	body := binary.BigEndian.Uint32(data)
	if body > MaxFrameSize {
		return Frame{}, nil, 0, fmt.Errorf("%w: length %d exceeds max %d", ErrFrameCorrupt, body, MaxFrameSize)
	}
	if int(body) < frameFixedSize {
		return Frame{}, nil, 0, fmt.Errorf("%w: length %d below fixed size %d", ErrFrameCorrupt, body, frameFixedSize)
	}
	if len(data)-4 < int(body) {
		return Frame{}, nil, 0, fmt.Errorf("%w: frame needs %d bytes, have %d", ErrShortBuffer, body, len(data)-4)
	}
	n = 4 + int(body)
	frame := data[:n]
	h := (*[frameHdrSize]byte)(frame)
	f.Kind = FrameKind(h[offKind])
	if !f.Kind.valid() {
		return Frame{}, nil, 0, fmt.Errorf("%w: kind %d", ErrFrameCorrupt, h[offKind])
	}
	flags := h[offFlags]
	if flags&^byte(frameFlagUp|frameFlagInject) != 0 {
		return Frame{}, nil, 0, fmt.Errorf("%w: reserved flag bits %#x", ErrFrameCorrupt, flags)
	}
	f.Up = flags&frameFlagUp != 0
	f.Inject = flags&frameFlagInject != 0
	nameLen := int(binary.BigEndian.Uint16(h[offNameLen:]))
	if nameLen > MaxFrameName {
		return Frame{}, nil, 0, fmt.Errorf("%w: name length %d", ErrFrameCorrupt, nameLen)
	}
	f.ID = binary.BigEndian.Uint64(h[offID:])
	f.Status = binary.BigEndian.Uint32(h[offStatus:])
	f.Aux = binary.BigEndian.Uint64(h[offAux:])
	f.Lane = binary.BigEndian.Uint32(h[offLane:])
	f.Slot = SlotDescriptor{
		Index:      binary.BigEndian.Uint32(h[offSlot:]),
		Length:     binary.BigEndian.Uint32(h[offSlot+4:]),
		Generation: binary.BigEndian.Uint32(h[offSlot+8:]),
	}
	dataLen := binary.BigEndian.Uint32(h[offDataLen:])
	if dataLen > MaxFramePayload {
		return Frame{}, nil, 0, fmt.Errorf("%w: payload length %d", ErrFrameCorrupt, dataLen)
	}
	nameEnd := frameHdrSize + nameLen
	dataOff := nameEnd + pad(nameLen)
	dataEnd := dataOff + int(dataLen)
	if want := dataEnd + pad(int(dataLen)) - 4; int(body) != want {
		return Frame{}, nil, 0, fmt.Errorf("%w: length prefix %d, contents need %d", ErrFrameCorrupt, body, want)
	}
	// The length check above covers both views. Capacity is clipped so an
	// append to a view cannot write into the buffer.
	name = frame[frameHdrSize:nameEnd:nameEnd]
	if dataLen > 0 {
		f.Data = frame[dataOff:dataEnd:dataEnd]
	}
	return f, name, n, nil
}
