//go:build unix

package xpc

import (
	"fmt"
	"sync/atomic"
	"unsafe"

	"decafdrivers/internal/decaf/registry"
	"decafdrivers/internal/trace"
)

// The shared region opens with a layout header: the geometry of every area
// behind it, written by the kernel side before each worker epoch starts and
// validated whole by the worker before it touches anything else. The worker
// learns the layout from the mapping itself, so the control socket carries
// one frame per epoch, the worker's acknowledgement.
//
//	[layoutHdr][payload area][state cells][lane directory + rings][trace rings]
//
// The kernel side writes the header from its own private values and never
// reads it back, so a worker that scribbles on it can only mislead itself;
// the next epoch's header is rewritten from scratch.

// layoutMagic tags a region laid out by this version of the header: "DCFLAY"
// followed by a 16-bit layout version. A worker refuses any other value.
const layoutMagic uint64 = 0x4443_464C_4159_0002

// layoutHdrSize is the encoded size of the header: two cache lines of its
// own, read in the steady state but never written there, so no hot word
// false-shares with it.
const layoutHdrSize = 128

// layoutHdr is the header cast over offset 0 of the shared region. Every
// field but ringGeom is written once per epoch, before the worker starts;
// ringGeom is the registered payload ring's geometry (slots<<32 | slotSize,
// zero for none), which the kernel side rewrites on registration and the
// worker loads for each slot descriptor it resolves. digest is the kernel
// side's registry.Digest, which the worker's own must equal.
type layoutHdr struct {
	magic atomic.Uint64 //decaf:shared
	// Offset and length of each area, in region order.
	payloadOff, payloadLen atomic.Uint64 //decaf:shared
	stateOff, stateLen     atomic.Uint64 //decaf:shared
	laneOff, laneLen       atomic.Uint64 //decaf:shared
	traceOff, traceLen     atomic.Uint64 //decaf:shared
	// Lane geometry: lane count (spill lane included), entries per ring and
	// the descriptor slot size.
	lanes, descEntries, slotSize atomic.Uint64 //decaf:shared
	// Trace geometry: ring count (kernel lanes plus the worker's own ring)
	// and entries per ring; both zero when the epoch is untraced.
	traceRings, traceEntries atomic.Uint64 //decaf:shared
	ringGeom                 atomic.Uint64 //decaf:shared
	digest                   atomic.Uint64 //decaf:shared
}

// Compile-time proof the header layout matches layoutHdrSize.
var _ = [1]struct{}{}[layoutHdrSize-unsafe.Sizeof(layoutHdr{})]

// layoutAt casts the header over the start of a mapping, which must be at
// least layoutHdrSize long and 8-byte aligned (every mmap is).
func layoutAt(mem []byte) *layoutHdr { return (*layoutHdr)(unsafe.Pointer(&mem[0])) }

// area is one byte range [off, off+n) of the shared region.
type area struct{ off, n int }

func (a area) end() int { return a.off + a.n }

// of slices the area out of a mapping.
func (a area) of(mem []byte) []byte { return mem[a.off:a.end():a.end()] }

// layout is the process-private form of the header: what the kernel side
// plans once per region and writes every epoch, and what parseLayout hands
// the worker once every field has been checked.
type layout struct {
	payload, state, lanes, trace     area
	laneCount, descEntries, slotSize int
	traceRings, traceEntries         int
}

// planLayout lays the areas out back to back behind the header, each on a
// cache-line boundary: payloadBytes of payload rings, the registry's state
// cells, laneCount descriptor-ring pairs of descEntries slots, and — when
// traceEntries is positive — one trace ring per lane plus the worker's.
func planLayout(payloadBytes, laneCount, descEntries, traceEntries int) layout {
	l := layout{laneCount: laneCount, descEntries: descEntries, slotSize: descSlotBytes}
	l.payload = area{layoutHdrSize, (payloadBytes + 63) &^ 63}
	l.state = area{l.payload.end(), (registry.StateBytes() + 63) &^ 63}
	l.lanes = area{l.state.end(), laneRegionBytes(laneCount, descEntries, descSlotBytes)}
	l.trace = area{off: l.lanes.end()}
	if traceEntries > 0 {
		l.traceRings, l.traceEntries = laneCount+1, traceEntries
		l.trace.n = trace.RegionBytes(l.traceRings, traceEntries)
	}
	return l
}

// store writes the whole header: every field, the magic included, so
// nothing a previous epoch's worker left there survives. The handler
// table's digest is computed here, once per epoch.
func (h *layoutHdr) store(l layout, ringGeom uint64) {
	h.magic.Store(layoutMagic)
	h.digest.Store(registry.Digest())
	h.payloadOff.Store(uint64(l.payload.off))
	h.payloadLen.Store(uint64(l.payload.n))
	h.stateOff.Store(uint64(l.state.off))
	h.stateLen.Store(uint64(l.state.n))
	h.laneOff.Store(uint64(l.lanes.off))
	h.laneLen.Store(uint64(l.lanes.n))
	h.traceOff.Store(uint64(l.trace.off))
	h.traceLen.Store(uint64(l.trace.n))
	h.lanes.Store(uint64(l.laneCount))
	h.descEntries.Store(uint64(l.descEntries))
	h.slotSize.Store(uint64(l.slotSize))
	h.traceRings.Store(uint64(l.traceRings))
	h.traceEntries.Store(uint64(l.traceEntries))
	h.ringGeom.Store(ringGeom)
}

// parseLayout is the one check of the header, made by the worker before it
// carves anything: the magic; the handler table digest against this image's
// own; every area cache-line aligned, in region order, disjoint and inside
// the mapping; the state area large enough for the registry's cells; the
// lane count, ring entries and slot size within their bounds and the lane
// area exactly their footprint; and the trace rings either absent or one per
// lane plus one, a power of two of at most MaxTraceEntries entries each,
// filling the trace area exactly. The payload ring geometry is not part of
// it: it may change while the worker runs, so each slot is bounded against
// the payload area as it is resolved.
func parseLayout(mem []byte) (layout, error) {
	if len(mem) < layoutHdrSize || uintptr(unsafe.Pointer(&mem[0]))%8 != 0 {
		return layout{}, fmt.Errorf("a %dB region holds no aligned %dB layout header", len(mem), layoutHdrSize)
	}
	h := layoutAt(mem)
	if m := h.magic.Load(); m != layoutMagic {
		return layout{}, fmt.Errorf("layout magic %#x, want %#x", m, layoutMagic)
	}
	if d, own := h.digest.Load(), registry.Digest(); d != own {
		return layout{}, fmt.Errorf("layout handler table digest %#x, this image's is %#x", d, own)
	}
	// Every word is bounded by the mapping size before it becomes an int,
	// so none of the sums below can overflow.
	w := [...]uint64{
		h.payloadOff.Load(), h.payloadLen.Load(), h.stateOff.Load(), h.stateLen.Load(),
		h.laneOff.Load(), h.laneLen.Load(), h.traceOff.Load(), h.traceLen.Load(),
		h.lanes.Load(), h.descEntries.Load(), h.slotSize.Load(), h.traceRings.Load(), h.traceEntries.Load(),
	}
	for i, v := range w {
		if v > uint64(len(mem)) {
			name := [...]string{"payload offset", "payload length", "state offset", "state length",
				"lane offset", "lane length", "trace offset", "trace length",
				"lane count", "descriptor entries", "slot size", "trace rings", "trace entries"}[i]
			return layout{}, fmt.Errorf("layout %s %d exceeds the %dB region", name, v, len(mem))
		}
	}
	l := layout{
		payload: area{int(w[0]), int(w[1])}, state: area{int(w[2]), int(w[3])},
		lanes: area{int(w[4]), int(w[5])}, trace: area{int(w[6]), int(w[7])},
		laneCount: int(w[8]), descEntries: int(w[9]), slotSize: int(w[10]),
		traceRings: int(w[11]), traceEntries: int(w[12]),
	}
	end := layoutHdrSize
	for _, a := range []struct {
		name string
		area
	}{{"payload", l.payload}, {"state", l.state}, {"lane", l.lanes}, {"trace", l.trace}} {
		switch {
		case a.off%64 != 0:
			return layout{}, fmt.Errorf("layout %s area at %d is not cache-line aligned", a.name, a.off)
		case a.off < end:
			return layout{}, fmt.Errorf("layout %s area at %d overlaps what precedes it (ends at %d)", a.name, a.off, end)
		case a.end() > len(mem):
			return layout{}, fmt.Errorf("layout %s area [%d, %d) runs past the %dB region", a.name, a.off, a.end(), len(mem))
		}
		end = a.end()
	}
	switch {
	case l.state.n < registry.StateBytes():
		return layout{}, fmt.Errorf("layout state area of %dB, the registry needs %dB", l.state.n, registry.StateBytes())
	case l.laneCount < 2 || l.laneCount > MaxProcLanes+1:
		return layout{}, fmt.Errorf("layout lane count %d outside [2, %d]", l.laneCount, MaxProcLanes+1)
	case l.descEntries < 1 || l.descEntries > 1<<20 || l.descEntries&(l.descEntries-1) != 0:
		return layout{}, fmt.Errorf("layout descriptor entries %d not a power of two in [1, %d]", l.descEntries, 1<<20)
	case l.slotSize < 8 || l.slotSize > 1<<20:
		return layout{}, fmt.Errorf("layout slot size %d outside [8, %d]", l.slotSize, 1<<20)
	case l.lanes.n != laneRegionBytes(l.laneCount, l.descEntries, l.slotSize):
		return layout{}, fmt.Errorf("layout lane area of %dB, %d lanes of %dx%dB need %dB",
			l.lanes.n, l.laneCount, l.descEntries, l.slotSize, laneRegionBytes(l.laneCount, l.descEntries, l.slotSize))
	case l.traceRings == 0:
		if l.traceEntries != 0 || l.trace.n != 0 {
			return layout{}, fmt.Errorf("layout has no trace rings but %d entries and a %dB trace area", l.traceEntries, l.trace.n)
		}
	case l.traceRings != l.laneCount+1:
		return layout{}, fmt.Errorf("layout trace rings %d, want one per lane plus the worker's (%d)", l.traceRings, l.laneCount+1)
	case l.traceEntries < 2 || l.traceEntries > MaxTraceEntries || l.traceEntries&(l.traceEntries-1) != 0:
		return layout{}, fmt.Errorf("layout trace entries %d not a power of two in [2, %d]", l.traceEntries, MaxTraceEntries)
	case l.trace.n != trace.RegionBytes(l.traceRings, l.traceEntries):
		return layout{}, fmt.Errorf("layout trace area of %dB, %d rings of %d entries need %dB",
			l.trace.n, l.traceRings, l.traceEntries, trace.RegionBytes(l.traceRings, l.traceEntries))
	}
	return l, nil
}
