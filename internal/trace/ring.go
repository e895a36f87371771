package trace

import (
	"fmt"
	"sync/atomic"
	"time"
	"unsafe"
)

// hdrBytes is the encoded size of a trace-ring header: three cache lines
// (head, tail, dropped), so the producer's and consumer's hot fields never
// false-share — the same discipline as xpc's descriptor-ring headers.
const hdrBytes = 192

// ringHdr is the shared-memory header of one SPSC trace ring, cast over the
// mapping by both processes. head is written only by the producer (the
// record publication fence), tail only by the consumer (the collector),
// dropped only by the producer. head is monotonic over the ring's lifetime,
// so it doubles as the total-records-emitted counter.
type ringHdr struct {
	head atomic.Uint64 //decaf:shared
	_    [56]byte
	tail atomic.Uint64 //decaf:shared
	_    [56]byte
	// dropped counts records discarded because the ring was full when the
	// producer tried to append — the flight recorder is lossy-by-design and
	// never blocks or overwrites unread history.
	dropped atomic.Uint64 //decaf:shared
	_       [56]byte
}

// Compile-time proof the header layout matches hdrBytes — the worker
// process casts the same bytes.
var _ = [1]struct{}{}[hdrBytes-unsafe.Sizeof(ringHdr{})]

// Ring is one single-producer single-consumer flight-recorder ring laid over
// a byte region: [ringHdr][entries × RecordBytes]. The region may be a slice
// of the xpc shared mapping (so the worker process appends into a timeline
// the kernel side drains) or, in tests, heap memory. The struct holds only
// derived pointers; both processes construct their own Ring over the same
// bytes.
type Ring struct {
	hdr   *ringHdr
	slots []byte
	mask  uint64
	// entries is the slot count (power of two).
	entries uint64
}

// RingBytes is the region footprint of a ring with the given entry count.
func RingBytes(entries int) int { return hdrBytes + entries*RecordBytes }

// MapRing lays a ring over region without touching its contents, so a
// respawned worker re-attaches to the timeline its predecessor was writing.
// entries must be a power of two and the region 8-byte aligned (mmap regions
// are page-aligned).
func MapRing(region []byte, entries int) (*Ring, error) {
	if entries < 2 || entries&(entries-1) != 0 {
		return nil, fmt.Errorf("trace: ring entries %d not a power of two >= 2", entries)
	}
	if need := RingBytes(entries); len(region) < need {
		return nil, fmt.Errorf("trace: ring of %d entries needs %dB, region has %dB", entries, need, len(region))
	}
	if uintptr(unsafe.Pointer(&region[0]))%8 != 0 {
		return nil, fmt.Errorf("trace: ring region not 8-byte aligned")
	}
	return &Ring{
		hdr:     (*ringHdr)(unsafe.Pointer(&region[0])),
		slots:   region[hdrBytes : hdrBytes+entries*RecordBytes],
		mask:    uint64(entries) - 1,
		entries: uint64(entries),
	}, nil
}

// Emit appends one record, stamping it with the wall clock. When the ring is
// full the record is dropped and counted — the hot path never blocks on the
// collector and never overwrites a record the collector has not read, so a
// slow (or absent) drain costs events, not latency. The slot bytes are
// written before the head advances (publication fence), so the consumer can
// never observe a half-written record through a published head.
//
//decaf:hotpath
func (r *Ring) Emit(k Kind, lane uint16, src Src, id, arg uint64) {
	head := r.hdr.head.Load()
	if head-r.hdr.tail.Load() >= r.entries {
		r.hdr.dropped.Add(1)
		return
	}
	i := int(head&r.mask) * RecordBytes
	putRecord(r.slots[i:i+RecordBytes:i+RecordBytes], time.Now().UnixNano(), id, arg, k, lane, src)
	r.hdr.head.Store(head + 1)
}

// Drain consumes every published record, invoking fn for each valid one and
// skipping torn records (see getRecord), and returns how many records it
// consumed. Single consumer: only the collector calls it.
func (r *Ring) Drain(fn func(Event)) int {
	tail := r.hdr.tail.Load()
	head := r.hdr.head.Load()
	n := 0
	for ; tail != head; tail++ {
		i := int(tail&r.mask) * RecordBytes
		if e, ok := getRecord(r.slots[i : i+RecordBytes]); ok {
			fn(e)
		}
		n++
	}
	r.hdr.tail.Store(tail)
	return n
}

// Emitted reports the total records ever published (head is monotonic).
func (r *Ring) Emitted() uint64 { return r.hdr.head.Load() }

// Dropped reports the total records discarded on overflow.
func (r *Ring) Dropped() uint64 { return r.hdr.dropped.Load() }

// RegionBytes computes the shared-mapping footprint of nrings trace rings of
// the given entry count, placed back to back. Both processes derive the
// identical layout, so this is part of the wire format (see CarveRings).
func RegionBytes(nrings, entries int) int { return nrings * RingBytes(entries) }

// CarveRings lays nrings rings back to back over region. The xpc transport
// calls it on both sides of the boundary over the same mapping-tail bytes:
// rings [0, nrings-2] are the kernel side's per-lane rings, ring nrings-1 is
// the worker process's ring.
func CarveRings(region []byte, nrings, entries int) ([]*Ring, error) {
	if nrings < 1 {
		return nil, fmt.Errorf("trace: ring count %d", nrings)
	}
	if need := RegionBytes(nrings, entries); len(region) < need {
		return nil, fmt.Errorf("trace: %d rings of %d entries need %dB, region has %dB",
			nrings, entries, need, len(region))
	}
	rings := make([]*Ring, nrings)
	off := 0
	size := RingBytes(entries)
	for i := range rings {
		r, err := MapRing(region[off:off+size], entries)
		if err != nil {
			return nil, err
		}
		rings[i] = r
		off += size
	}
	return rings, nil
}
