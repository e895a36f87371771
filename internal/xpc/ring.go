package xpc

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"decafdrivers/internal/kernel"
	"decafdrivers/internal/xdr"
)

// Payload-ring defaults: enough slots to cover the drivers' deepest pipeline
// (maxInFlight flushes of MaxBatch frames each) with headroom, sized for a
// full Ethernet frame.
const (
	DefaultRingSlots    = 256
	DefaultRingSlotSize = 2048
)

// Payload-ring errors.
var (
	// ErrPayloadRingRegistered rejects a second RegisterPayloadRing: the
	// registration crossing establishes one shared mapping per runtime.
	ErrPayloadRingRegistered = errors.New("xpc: payload ring already registered")
)

// PayloadRing is a pool of fixed-size payload buffers shared between the
// driver nucleus and the decaf driver. It is registered with the runtime's
// transport once, at initialization (one crossing); afterwards a
// data-carrying call references a slot by descriptor — index, length,
// generation, twelve bytes on the wire — instead of marshaling payload
// bytes, the §4.2 direct-transfer proposal. When the ring is exhausted (or
// no ring is registered) calls fall back to the full payload marshal, so
// overload degrades to the seed copying path rather than blocking or
// dropping.
//
// Slot lifetime follows completion lifetime: the kernel side acquires a slot
// when it stages a payload, the far side resolves the descriptor during the
// crossing, and the slot is released when the flush's completion settles —
// so inline transports recycle within the submitting call and an async
// transport holds slots exactly as long as crossings are in flight.
//
// Acquire, Release and Buffer are safe for concurrent use: the kernel side
// acquires while the async service resolves descriptors on its own
// goroutine. Occupancy gauges are atomics readable without the lock.
type PayloadRing struct {
	slotSize int

	mu    sync.Mutex
	slots []ringSlot
	free  []uint32 // LIFO free list of slot indexes

	inUse     atomic.Int64
	peak      atomic.Int64
	acquired  atomic.Uint64
	exhausted atomic.Uint64
	stale     atomic.Uint64
}

type ringSlot struct {
	buf   []byte
	gen   uint32 // bumped on release; 0 is never a live generation
	taken bool
}

// NewPayloadRing creates a ring of n slots of slotSize bytes each; values
// < 1 select the defaults.
func NewPayloadRing(n, slotSize int) *PayloadRing {
	if n < 1 {
		n = DefaultRingSlots
	}
	if slotSize < 1 {
		slotSize = DefaultRingSlotSize
	}
	p, err := NewPayloadRingOver(make([]byte, n*slotSize), n, slotSize)
	if err != nil {
		// Unreachable: the backing is sized to fit by construction.
		panic(err)
	}
	return p
}

// NewPayloadRingOver builds a ring whose slot buffers slice backing instead
// of allocating — the shared-memory-mapped case, where the backing is an
// mmap region both sides of a real process boundary see. backing must hold
// n*slotSize bytes.
func NewPayloadRingOver(backing []byte, n, slotSize int) (*PayloadRing, error) {
	if n < 1 || slotSize < 1 || len(backing) < n*slotSize {
		return nil, fmt.Errorf("xpc: payload ring %dx%dB does not fit %dB backing", n, slotSize, len(backing))
	}
	p := &PayloadRing{
		slotSize: slotSize,
		slots:    make([]ringSlot, n),
		free:     make([]uint32, 0, n),
	}
	for i := range p.slots {
		p.slots[i].buf = backing[i*slotSize : (i+1)*slotSize]
		p.slots[i].gen = 1
		p.free = append(p.free, uint32(n-1-i)) // pop order 0,1,2,...
	}
	return p, nil
}

// Slots reports the ring's capacity in slots.
func (p *PayloadRing) Slots() int { return len(p.slots) }

// SlotSize reports the fixed size of each slot buffer.
func (p *PayloadRing) SlotSize() int { return p.slotSize }

// InUse reports the slots currently acquired.
func (p *PayloadRing) InUse() int64 { return p.inUse.Load() }

// Peak reports the occupancy high-water mark.
func (p *PayloadRing) Peak() int64 { return p.peak.Load() }

// Acquired reports total successful slot acquisitions.
func (p *PayloadRing) Acquired() uint64 { return p.acquired.Load() }

// Exhausted reports acquisition attempts that found no usable slot (ring
// empty, or payload larger than a slot) and fell back to the copy path.
func (p *PayloadRing) Exhausted() uint64 { return p.exhausted.Load() }

// Stale reports descriptor resolutions and releases that failed validation
// (recycled slot, wrong generation) — zero in a correct driver.
func (p *PayloadRing) Stale() uint64 { return p.stale.Load() }

// Acquire stages a payload of n bytes: it pops a free slot, returns its
// descriptor and the slot's buffer truncated to n for the caller to fill.
// ok is false — and the exhaustion counter bumps — when no slot is free or
// n exceeds the slot size; the caller then falls back to carrying the bytes.
//
//decaf:hotpath
func (p *PayloadRing) Acquire(n int) (s xdr.SlotDescriptor, buf []byte, ok bool) {
	if n > p.slotSize {
		p.exhausted.Add(1)
		return xdr.SlotDescriptor{}, nil, false
	}
	p.mu.Lock()
	if len(p.free) == 0 {
		p.mu.Unlock()
		p.exhausted.Add(1)
		return xdr.SlotDescriptor{}, nil, false
	}
	idx := p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	slot := &p.slots[idx]
	slot.taken = true
	s = xdr.SlotDescriptor{Index: idx, Length: uint32(n), Generation: slot.gen}
	buf = slot.buf[:n]
	p.mu.Unlock()

	p.acquired.Add(1)
	cur := p.inUse.Add(1)
	for {
		peak := p.peak.Load()
		if cur <= peak || p.peak.CompareAndSwap(peak, cur) {
			break
		}
	}
	return s, buf, true
}

// Buffer resolves a descriptor to its slot's bytes — the far side of the
// crossing reading the payload in place. It fails on a stale or malformed
// descriptor (recycled slot, generation mismatch, out-of-range index).
//
//decaf:hotpath
func (p *PayloadRing) Buffer(s xdr.SlotDescriptor) ([]byte, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if int(s.Index) >= len(p.slots) {
		p.stale.Add(1)
		return nil, fmt.Errorf("xpc: slot index %d out of range (ring has %d)", s.Index, len(p.slots))
	}
	slot := &p.slots[s.Index]
	if !slot.taken || slot.gen != s.Generation {
		p.stale.Add(1)
		return nil, fmt.Errorf("xpc: stale slot descriptor %d/gen%d (slot gen %d, taken %v)",
			s.Index, s.Generation, slot.gen, slot.taken)
	}
	if int(s.Length) > p.slotSize {
		p.stale.Add(1)
		return nil, fmt.Errorf("xpc: slot descriptor length %d exceeds slot size %d", s.Length, p.slotSize)
	}
	return slot.buf[:s.Length], nil
}

// Release recycles a slot: its generation bumps (outstanding descriptors
// become stale) and it returns to the free list. Releasing a stale
// descriptor (double release, wrong generation) is an error and leaves the
// ring unchanged.
//
//decaf:hotpath
func (p *PayloadRing) Release(s xdr.SlotDescriptor) error {
	p.mu.Lock()
	if int(s.Index) >= len(p.slots) {
		p.mu.Unlock()
		p.stale.Add(1)
		return fmt.Errorf("xpc: release of slot index %d out of range (ring has %d)", s.Index, len(p.slots))
	}
	slot := &p.slots[s.Index]
	if !slot.taken || slot.gen != s.Generation {
		p.mu.Unlock()
		p.stale.Add(1)
		return fmt.Errorf("xpc: release of stale slot %d/gen%d (slot gen %d, taken %v)",
			s.Index, s.Generation, slot.gen, slot.taken)
	}
	slot.taken = false
	slot.gen++
	if slot.gen == 0 { // generation 0 is reserved for "no slot"
		slot.gen = 1
	}
	//decaf:allowalloc free list capacity is fixed at ring construction
	p.free = append(p.free, s.Index)
	p.mu.Unlock()
	p.inUse.Add(-1)
	return nil
}

// Payload is a staged crossing payload: slot-backed on the zero-copy fast
// path (Slot valid, contents snapshotted into the ring at acquire time), or
// the raw bytes on the fallback copy path (Data aliased; see
// Batch.UpcallHandlerData for the aliasing rule).
type Payload struct {
	Slot xdr.SlotDescriptor
	Data []byte
}

// Direct reports whether the payload rides a ring slot (zero-copy) rather
// than the marshal fallback.
func (p Payload) Direct() bool { return p.Slot.Valid() }

// AcquirePayload stages data for a crossing. With a registered ring and a
// free slot, the bytes are snapshotted into the slot and the payload carries
// only the descriptor — the crossing then transfers twelve bytes regardless
// of payload size. Otherwise (no ring, ring exhausted, oversized payload)
// the payload carries the bytes themselves and the crossing pays the
// per-byte copy: degradation is always to the copy path, never a block or a
// drop. Release with ReleasePayload when the carrying flush's completion
// settles.
//
//decaf:hotpath
func (r *Runtime) AcquirePayload(data []byte) Payload {
	ring := r.payloadRing.Load()
	if ring == nil {
		return Payload{Data: data}
	}
	s, buf, ok := ring.Acquire(len(data))
	if !ok {
		return Payload{Data: data}
	}
	copy(buf, data)
	return Payload{Slot: s}
}

// ReleasePayload recycles a slot-backed payload's ring slot; fallback
// payloads pass through untouched. Drivers call it when the flush that
// carried the payload settles (slot lifetime = completion lifetime).
//
//decaf:hotpath
func (r *Runtime) ReleasePayload(p Payload) {
	if !p.Slot.Valid() {
		return
	}
	if ring := r.payloadRing.Load(); ring != nil {
		_ = ring.Release(p.Slot)
	}
}

// ReleasePayloads recycles a batch of staged payloads.
//
//decaf:hotpath
func (r *Runtime) ReleasePayloads(ps []Payload) {
	for _, p := range ps {
		r.ReleasePayload(p)
	}
}

// Flight is the cargo of one pipelined flush: the items (frames, say) it
// carried and the staged payloads they crossed in. Drivers take flights from
// a FlightPool, push them through a FlushPipeline and hand them back to the
// pool when the flush settles — slot lifetime equals completion lifetime.
type Flight[T any] struct {
	Items    []T
	Payloads []Payload
}

// FlightPool recycles settled flights: a driver's flushes are all of about
// one size, so after the first few the Items and Payloads slices of every
// new flight are ones an earlier flight gave back, and staging allocates
// nothing. The zero value is ready to use. Not safe for concurrent use: like
// the FlushPipeline it feeds, a pool belongs to one driver, whose paths are
// already serialized.
type FlightPool[T any] struct {
	free []Flight[T]
}

// Get returns an empty flight, a recycled one when the pool has any.
//
//decaf:hotpath
func (p *FlightPool[T]) Get() Flight[T] {
	var f Flight[T]
	if n := len(p.free); n > 0 {
		f, p.free[n-1] = p.free[n-1], Flight[T]{}
		p.free = p.free[:n-1]
	}
	return f
}

// Stage adds one item to the flight and stages its payload (see
// AcquirePayload): a ring-exhausted or oversized item individually falls
// back to the copy path.
//
//decaf:hotpath
func (f *Flight[T]) Stage(r *Runtime, item T, data []byte) {
	//decaf:allowalloc a recycled flight already has room; only a flush larger than any before it grows the list, which the pool then keeps
	f.Items = append(f.Items, item)
	//decaf:allowalloc as above: one payload per item, capacity kept across recycling
	f.Payloads = append(f.Payloads, r.AcquirePayload(data))
}

// Release ends a settled flight: its payload slots go back to the ring and
// its slices, cleared so neither the items nor a copy-path payload's bytes
// stay reachable, go back to the pool.
//
//decaf:hotpath
func (p *FlightPool[T]) Release(r *Runtime, f Flight[T]) {
	r.ReleasePayloads(f.Payloads)
	clear(f.Items)
	clear(f.Payloads)
	f.Items, f.Payloads = f.Items[:0], f.Payloads[:0]
	//decaf:allowalloc bounded by the flights one driver has in flight at once (its pipelines' maxInFlight)
	p.free = append(p.free, f)
}

// PayloadRing returns the registered ring, or nil.
func (r *Runtime) PayloadRing() *PayloadRing {
	return r.payloadRing.Load()
}

// UnregisterPayloadRing detaches and returns the registered ring (nil if
// none), after which data-carrying calls fall back to the copy path until a
// fresh ring registers. This is the recovery-time teardown: the decaf side
// is suspect and its shared mapping is discarded kernel-side, so the
// detach itself performs no crossing (a process-separated transport is told
// best-effort, in case its worker still lives). Outstanding descriptors
// into the old ring become unresolvable — callers must have quiesced
// in-flight flushes (releasing their slots) first.
func (r *Runtime) UnregisterPayloadRing() *PayloadRing {
	ring := r.payloadRing.Swap(nil)
	if ring != nil {
		if reg, ok := r.Transport().(ringRegistrar); ok {
			reg.UnregisterRing(r, ring)
		}
	}
	return ring
}

// MappedRingTransport is a transport that backs payload rings with memory
// genuinely shared with its far side — ProcTransport's mmap region. Rings
// for such a transport must come from NewMappedRing (Runtime.NewRing does
// this automatically); a heap-backed ring would be invisible to the worker
// process's address space.
type MappedRingTransport interface {
	NewMappedRing(slots, slotSize int) (*PayloadRing, error)
}

// ringRegistrar is a transport that must observe ring registration itself —
// ProcTransport publishes the geometry to its worker process so descriptors
// resolve on the far side of the real boundary. RegisterRing runs before
// the registration upcall; UnregisterRing is best-effort (the usual caller
// is recovery teardown, where the worker is already dead).
type ringRegistrar interface {
	RegisterRing(r *Runtime, ring *PayloadRing) error
	UnregisterRing(r *Runtime, ring *PayloadRing)
}

// NewRing builds a payload ring suitable for the runtime's transport:
// backed by the transport's shared mapping when it provides one
// (MappedRingTransport), heap-backed otherwise. Values < 1 select the
// defaults. Harnesses and the recovery supervisor use it so the same
// wiring works across every transport.
func (r *Runtime) NewRing(n, slotSize int) (*PayloadRing, error) {
	if n < 1 {
		n = DefaultRingSlots
	}
	if slotSize < 1 {
		slotSize = DefaultRingSlotSize
	}
	if m, ok := r.Transport().(MappedRingTransport); ok {
		return m.NewMappedRing(n, slotSize)
	}
	return NewPayloadRing(n, slotSize), nil
}

// RegisterPayloadRing registers ring with the runtime and its transport:
// the one-time crossing that maps the ring's buffers into both sides, after
// which data-carrying calls may reference slots by descriptor. In
// ModeNative there is no boundary: the ring registers without a crossing
// and Acquire simply recycles buffers.
func (r *Runtime) RegisterPayloadRing(ctx *kernel.Context, ring *PayloadRing) error {
	if ring == nil {
		return errors.New("xpc: RegisterPayloadRing of nil ring")
	}
	if r.Mode == ModeNative {
		if !r.payloadRing.CompareAndSwap(nil, ring) {
			return ErrPayloadRingRegistered
		}
		return nil
	}
	if !r.payloadRing.CompareAndSwap(nil, ring) {
		return ErrPayloadRingRegistered
	}
	// A process-separated transport publishes the geometry to its worker
	// first, so the registration upcall below — and every slot descriptor
	// after it — resolves on the far side of the real boundary.
	if reg, ok := r.Transport().(ringRegistrar); ok {
		if err := reg.RegisterRing(r, ring); err != nil {
			r.payloadRing.Store(nil)
			return err
		}
	}
	// The one-time registration crossing: the kernel side publishes the
	// ring's buffers to the decaf runtime, which records the shared mapping.
	// Paid once at initialization, never per payload.
	err := r.Upcall(ctx, "xpc_register_payload_ring", func(uctx *kernel.Context) error {
		return nil
	})
	if err != nil {
		r.payloadRing.Store(nil)
		return err
	}
	return nil
}
