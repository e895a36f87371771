package xpc

import (
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"sync/atomic"
	"time"
	"unsafe"
)

// This file implements the shared-memory descriptor rings that carry a
// ProcTransport's whole data plane — calls, completions, and the nested
// downcalls of executing bodies — leaving the socketpairs the worker's
// layout acknowledgement and the doorbells. Two single-producer single-consumer rings live at the tail
// of the mmap-shared region — one per direction: the kernel side produces
// encoded xdr.Frame submit descriptors (and downcall results) into the
// submit ring and consumes completion descriptors (and downcall requests)
// from the completion ring; the worker process does the reverse. Each ring
// is a power-of-two array of fixed-size slots fronted by a header of
// monotonic head/tail sequence counters plus a parked flag.
//
// # Memory-ordering invariants (the park/doorbell handshake)
//
// All header fields are Go sync/atomic operations, which are sequentially
// consistent; the slot bytes themselves are plain writes. Each side keeps
// two indices in its own process-private descRing view: the one it alone
// writes, and the last value of the peer's it loaded — the producer head
// and a copy of tail, the consumer tail and a copy of head. Both live in
// one view of one epoch, never in the mapping. Three invariants make the
// protocol correct across the process boundary (the mapping is MAP_SHARED,
// so both sides observe the same physical cache lines):
//
//  1. Publication. The producer fully writes a slot's bytes BEFORE it
//     stores head+1. Its head is private and exact — it has no other
//     writer — so reserve never loads it, and a peer's scribble on the
//     mapped word is overwritten by the next store. The store is a locked
//     instruction that completes only once the slot's cache lines are
//     owned; the kernel side hashes its payload proof before it, where that
//     wait would otherwise be spent. The consumer reads a slot only below a
//     head value it loaded — fresh, or cached from an earlier load, which
//     program order puts before the read all the same. The release/acquire
//     pairing on head therefore makes every slot byte visible to a consumer
//     that observed the advanced head. A cached head is an earlier load of
//     a monotonic counter, so it only under-reports the published slots;
//     pending reloads it exactly when the cache says empty.
//  2. Reclamation. The consumer finishes reading a slot BEFORE it stores
//     tail+1; its tail is private and exact in the same way, so pending
//     never loads it. The producer reuses a slot only below a tail value
//     it loaded, fresh or cached. The pairing on tail guarantees the
//     producer never overwrites bytes the consumer is still reading. A
//     cached tail only under-reports the free slots; reserve reloads it
//     exactly when the cache says full.
//  3. No lost wakeup. A consumer that found the ring empty parks in two
//     steps: store parked=1, THEN re-check with pending(), which returns nil
//     only after a fresh load of head; only if still empty does it block on
//     the doorbell. A producer publishes (the head store) THEN checks parked
//     (Swap(0)), ringing the doorbell on 1. Sequential consistency forbids
//     both sides reading the old value: either the producer's swap observes
//     parked=1 (and rings), or the consumer's re-check observes the new head
//     (and does not block). A spurious doorbell byte is harmless — waiters
//     drain and re-check — so the protocol errs toward waking.
//
// A view starts at the header's indices when it is carved. reset zeroes the
// counters under the private indices, so it clears the resetting view's
// own, and a view never outlives its epoch: the kernel side carves fresh
// views for every worker it spawns (ensureEpochLocked), and a fresh worker
// process carves its own.
//
// The doorbell itself is a dedicated socketpair (byte written only when the
// peer declared itself parked), so steady-state crossings perform zero
// syscalls: the futex-style fast path the Decaf paper's §4.2 batching
// argument wants under the process-separated transport.
//
// # Multi-lane invariants (sharded submission)
//
// The proc transport carves N+1 independent lanes from the mapping tail —
// each lane a submit+complete SPSC ring pair — preceded by a laneDir header.
// Every per-lane ring obeys invariants 1–3 unchanged; lanes add three more:
//
//  4. Lane exclusivity. A lane's kernel side is single-producer by
//     construction: a submitter owns a lane only between a successful
//     CompareAndSwap(0,1) on the lane's claim word and the matching
//     Store(0) release. The CAS acquire / store release pairing means all
//     of a previous holder's ring writes happen-before the next holder's,
//     so per-lane head/tail/sequence state needs no further fencing.
//  5. Worker-wide park. The worker parks on ONE flag spanning all submit
//     lanes (laneDir.parked), not per-lane flags: it stores parked=1, THEN
//     re-sweeps every submit lane with pending() — each nil a fresh load of
//     that lane's head, whatever its cache held — and only blocks if all
//     were empty. A producer on any lane publishes THEN swaps parked; as in
//     invariant 3, sequential consistency forbids the publish escaping both
//     the sweep and the swap, so no lane's submission is stranded while the
//     worker sleeps. Completion rings keep per-ring parked flags (invariant 3)
//     because each lane's claimant is its own independent waiter, woken by
//     a per-lane doorbell.
//  6. Per-lane ordering only. Frame IDs are per-lane sequence numbers;
//     completions carry (lane, id) and demux by lane, so the protocol
//     promises FIFO within a lane and nothing across lanes. Cross-lane
//     ordering is deliberately unspecified — that independence is what
//     removes the transport-wide lock.
//  7. One conversation per lane. A body that calls down talks over the
//     rings of the lane its call arrived on: FrameDown on the completion
//     ring, FrameDownResult on the submit ring. Two rules keep that
//     unambiguous without a third ring or any peek-ahead. The holder
//     publishes nothing behind a downcall-making call until it has consumed
//     that call's completion (a publication barrier inside the chunk), and
//     the worker advances the submit ring past such a call before running
//     it. So while the body runs the submit ring is empty, and the next
//     entry to appear there is the result of its pending downcall — written
//     by the holder, which is the completion ring's consumer already and so
//     sees the request in its ordinary await loop. The worker executes one
//     body at a time: a body blocked on a result parks on the worker-wide
//     flag of invariant 5, and no other lane is served until it returns.

// descHdrSize is the encoded size of a ring header: three cache lines (head,
// tail, parked), so the producer's and consumer's hot fields never
// false-share.
const descHdrSize = 192

// descHdr is the shared-memory header of one SPSC ring, cast over the
// mapping. head is written only by the producer, tail only by the consumer;
// parked is written by the consumer (park/unpark) and swapped by the
// producer (doorbell gate).
type descHdr struct {
	head   atomic.Uint64 //decaf:shared
	_      [56]byte
	tail   atomic.Uint64 //decaf:shared
	_      [56]byte
	parked atomic.Uint32 //decaf:shared
	_      [60]byte
}

// Compile-time proof the header layout matches descHdrSize — the worker
// process casts the same bytes.
var _ = [1]struct{}{}[descHdrSize-unsafe.Sizeof(descHdr{})]

// laneDirSize is the encoded size of the lane directory: one cache line.
const laneDirSize = 64

// laneDir is the shared-memory header preceding the lane ring array: the
// worker-wide parked flag of invariant 5. The worker stores it (park/unpark);
// kernel-side producers swap it after publishing on any submit lane.
type laneDir struct {
	parked atomic.Uint32 //decaf:shared
	_      [60]byte
}

// Compile-time proof the directory layout matches laneDirSize.
var _ = [1]struct{}{}[laneDirSize-unsafe.Sizeof(laneDir{})]

// laneRings is one lane's pair of SPSC rings: the kernel side produces into
// sub and consumes cmp; the worker does the reverse.
type laneRings struct {
	sub *descRing
	cmp *descRing
}

// laneRegionBytes is the mapping-tail footprint of a lane array: the
// directory plus two rings per lane.
func laneRegionBytes(lanes, entries, slotSize int) int {
	return laneDirSize + lanes*2*descRingBytes(entries, slotSize)
}

// carveLanes lays the lane directory and `lanes` ring pairs over region
// (directory first, then sub/cmp pairs back to back). Both processes call it
// over the same mapping-tail bytes, so the layout is the wire format.
func carveLanes(region []byte, lanes, entries, slotSize int) (*laneDir, []laneRings, error) {
	if lanes < 1 {
		return nil, nil, fmt.Errorf("xpc: lane count %d", lanes)
	}
	if need := laneRegionBytes(lanes, entries, slotSize); len(region) < need {
		return nil, nil, fmt.Errorf("xpc: %d lanes of %dx%dB need %dB, region has %dB",
			lanes, entries, slotSize, need, len(region))
	}
	if uintptr(unsafe.Pointer(&region[0]))%8 != 0 {
		return nil, nil, fmt.Errorf("xpc: lane region not 8-byte aligned")
	}
	dir := (*laneDir)(unsafe.Pointer(&region[0]))
	ringBytes := descRingBytes(entries, slotSize)
	rings := make([]laneRings, lanes)
	off := laneDirSize
	for i := range rings {
		sub, err := newDescRing(region[off:off+ringBytes], entries, slotSize)
		if err != nil {
			return nil, nil, err
		}
		off += ringBytes
		cmp, err := newDescRing(region[off:off+ringBytes], entries, slotSize)
		if err != nil {
			return nil, nil, err
		}
		off += ringBytes
		rings[i] = laneRings{sub: sub, cmp: cmp}
	}
	return dir, rings, nil
}

// descRing is one direction's SPSC descriptor ring over a shared-memory
// region: [descHdr][entries × slotSize]. Both processes construct their own
// descRing over the same bytes; the struct holds derived pointers and
// constants plus, per side, the index that side writes and the last value
// of the peer's index it loaded. Those indices are process-private: they
// never enter the mapping, and a view's owner (one lane holder at a time,
// or the worker's serve goroutine) is their only reader and writer.
type descRing struct {
	hdr      *descHdr
	buf      []byte
	mask     uint64
	entries  uint64
	slotSize int

	// ownHead is the producer's copy of the head it alone writes, ownTail
	// the consumer's copy of its tail: exact, because no other writer
	// exists, so neither side ever loads its own index from the mapping
	// (invariants 1 and 2), and a peer that scribbles on it is overwritten
	// by the next store.
	ownHead uint64
	ownTail uint64
	// peerTail is the producer's copy of the consumer's tail, peerHead the
	// consumer's copy of the producer's head. Each is some earlier load of a
	// monotonic index, so it is never ahead of the real one (invariants 1
	// and 2) and is refreshed only when it would make reserve refuse or
	// pending report empty.
	peerTail uint64
	peerHead uint64
}

// descRingBytes is the region footprint of one ring.
func descRingBytes(entries, slotSize int) int { return descHdrSize + entries*slotSize }

// newDescRing lays a ring over region (header first, then the slot array).
// entries must be a power of two and the region must be 8-byte aligned —
// both sides of an mmap mapping are page-aligned, and heap-backed test
// regions come from alignedRegion.
func newDescRing(region []byte, entries, slotSize int) (*descRing, error) {
	if entries < 1 || entries&(entries-1) != 0 {
		return nil, fmt.Errorf("xpc: desc ring entries %d not a power of two", entries)
	}
	if slotSize < 8 {
		return nil, fmt.Errorf("xpc: desc ring slot size %d too small", slotSize)
	}
	if need := descRingBytes(entries, slotSize); len(region) < need {
		return nil, fmt.Errorf("xpc: desc ring %dx%dB needs %dB, region has %dB",
			entries, slotSize, need, len(region))
	}
	if uintptr(unsafe.Pointer(&region[0]))%8 != 0 {
		return nil, fmt.Errorf("xpc: desc ring region not 8-byte aligned")
	}
	// Both sides start at the header's indices, tail loaded first so the
	// head seen after it is never behind it; the peer caches start at the
	// same loads, which are earlier loads of the peer's index like any other.
	hdr := (*descHdr)(unsafe.Pointer(&region[0]))
	tail := hdr.tail.Load()
	head := hdr.head.Load()
	return &descRing{
		hdr:      hdr,
		buf:      region[descHdrSize:],
		mask:     uint64(entries) - 1,
		entries:  uint64(entries),
		slotSize: slotSize,
		ownHead:  head,
		ownTail:  tail,
		peerTail: tail,
		peerHead: head,
	}, nil
}

// nextPow2 rounds n up to a power of two (minimum 1).
func nextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

// reset zeroes the sequence counters and parked flag, and this view's own
// and cached peer indices. The kernel side calls it before handing the
// rings to a freshly spawned worker, so a dead worker's stale positions
// cannot leak into the next epoch. Never call it while a peer is attached,
// and never use another view of the same ring across it: that view's
// private indices would still hold the old epoch's positions, ahead of the
// zeroed header. Both sides carve fresh views per epoch (ensureEpochLocked,
// and a new worker process), so none does.
func (q *descRing) reset() {
	q.hdr.head.Store(0)
	q.hdr.tail.Store(0)
	q.hdr.parked.Store(0)
	q.ownHead, q.ownTail, q.peerTail, q.peerHead = 0, 0, 0, 0
}

// --- producer side ---

// reserve returns the next free slot's bytes, or nil when the ring is full.
// The producer writes the slot, then publish()es it; until then the consumer
// cannot observe it. The head is the view's own copy, and the consumer's
// tail is loaded only when the cached copy says full, so a ring with room
// reads nothing from the mapping.
//
//decaf:hotpath
func (q *descRing) reserve() []byte {
	head := q.ownHead
	if head-q.peerTail >= q.entries {
		if q.peerTail = q.hdr.tail.Load(); head-q.peerTail >= q.entries {
			return nil
		}
	}
	i := int(head&q.mask) * q.slotSize
	return q.buf[i : i+q.slotSize : i+q.slotSize]
}

// publish makes the last reserved slot visible to the consumer (invariant
// 1). The store is a locked instruction: it completes only once the slot's
// cache lines are owned, so a caller with work of its own to do does it
// between the slot write and this call.
//
//decaf:hotpath
func (q *descRing) publish() {
	q.ownHead++
	q.hdr.head.Store(q.ownHead)
}

// consumerParked atomically consumes the consumer's parked declaration,
// reporting whether a doorbell is owed (invariant 3, producer half). The
// producer calls it after publish().
//
//decaf:hotpath
func (q *descRing) consumerParked() bool { return q.hdr.parked.Swap(0) == 1 }

// --- consumer side ---

// pending returns the oldest published slot's bytes, or nil when the ring is
// empty. The consumer reads the slot, then advance()s past it. The tail is
// the view's own copy, and the producer's head is loaded only when the
// cached copy says empty, so nil always rests on a fresh load: every
// re-check after park sees the real head.
//
//decaf:hotpath
func (q *descRing) pending() []byte {
	tail := q.ownTail
	if q.peerHead == tail {
		if q.peerHead = q.hdr.head.Load(); q.peerHead == tail {
			return nil
		}
	}
	i := int(tail&q.mask) * q.slotSize
	return q.buf[i : i+q.slotSize : i+q.slotSize]
}

// advance releases the slot pending() returned back to the producer
// (invariant 2). The slot's bytes must not be touched afterwards.
//
//decaf:hotpath
func (q *descRing) advance() {
	q.ownTail++
	q.hdr.tail.Store(q.ownTail)
}

// park declares this consumer about to block (invariant 3, consumer half):
// the caller must re-check pending() after park() and only then block on the
// doorbell.
//
//decaf:hotpath
func (q *descRing) park() { q.hdr.parked.Store(1) }

// unpark withdraws the parked declaration (after a wake, or when the
// post-park re-check found work).
//
//decaf:hotpath
func (q *descRing) unpark() { q.hdr.parked.Store(0) }

// descSpinBudget is how many empty pending() polls a consumer burns before
// parking. The peer services a chunk in microseconds, so a short spin
// usually swallows the whole wait without a syscall; yielding every 64
// iterations keeps a busy spin from starving the peer on a loaded machine.
const descSpinBudget = 4096

// soloSpinBudget is the completion spin budget of a lane holder with no
// sibling in flight. descSpinBudget is 10-20 µs, about as long as the worker
// loses its CPU to a thread waking beside it, and a park then costs more
// than its two syscalls: the wake comes through the runtime's poller, which
// starts an idle M and keeps sysmon on its short tick — threads that, with
// no CPU to spare, run by preempting the worker again. Parks breed parks: on
// 2 CPUs one-call crossings ran in spells of 1000-3000 parks a second, 15 %
// slower than the spells without. Four budgets ride a preemption out (three
// do, two do not) and find a dead worker ~50 µs later. With siblings a park
// frees a P for one of them, and laneCrossOn's scaled budget stands.
const soloSpinBudget = 4 * descSpinBudget

// errWorkerExited is the death awaitSlotBudget reports when its exit flag
// says the producing process is gone and the ring holds nothing more from
// it: the exit observation, rather than the doorbell EOF that follows.
var errWorkerExited = errors.New("worker process exit observed")

// awaitSlot polls q until a slot is pending, parking on the doorbell when
// the spin budget runs out. A zero timeout means block indefinitely;
// otherwise each doorbell wait fails once timeout has passed since its park
// (the wedged-worker backstop). wakes counts the doorbell blocks that ended
// during the wait — returned rather than reported through a callback so the
// caller's hot path stays closure-free (a captured-counter closure would
// allocate per crossing).
//
//decaf:hotpath
func (q *descRing) awaitSlot(bell doorbell, timeout time.Duration) (slot []byte, wakes int, err error) {
	return q.awaitSlotBudget(bell, timeout, descSpinBudget, nil)
}

// awaitSlotBudget is awaitSlot with an explicit spin budget and, when
// exited is non-nil, the producer's exit flag. Concurrent lane holders pass
// a budget scaled down by the number of active lanes: K submitters spinning
// with Gosched on an oversubscribed machine take ~K times longer wall-clock
// to exhaust a fixed budget, starving the worker process of CPU exactly
// when it has the most pending work — the full budget's tail latency under
// 8-way contention measured ~20x its single-submitter value before this
// scaling. Each yield reads the exit flag: a producer that died while its
// consumer spins is seen within 64 polls, not after the budget and a park,
// and whatever it published before dying is still consumed first. The clock
// is read only at a park, so a wait the spin absorbs costs no clock read.
//
//decaf:hotpath
func (q *descRing) awaitSlotBudget(bell doorbell, timeout time.Duration, budget int, exited *atomic.Bool) (slot []byte, wakes int, err error) {
	for spins := 0; ; spins++ {
		if s := q.pending(); s != nil {
			return s, wakes, nil
		}
		if spins < budget {
			if spins%64 == 63 {
				if exited != nil && exited.Load() {
					if s := q.pending(); s != nil {
						return s, wakes, nil
					}
					return nil, wakes, errWorkerExited
				}
				runtime.Gosched()
			}
			continue
		}
		q.park()
		if s := q.pending(); s != nil {
			q.unpark()
			return s, wakes, nil
		}
		var deadline time.Time
		if timeout > 0 {
			deadline = time.Now().Add(timeout)
		}
		werr := bell.wait(deadline)
		q.unpark()
		if werr != nil {
			return nil, wakes, werr
		}
		wakes++
		spins = 0
	}
}

// doorbell wakes a parked ring consumer across the boundary. The fdDoorbell
// implementation is a dedicated socketpair; tests substitute an in-process
// channel to drive the park/unpark races under the race detector.
type doorbell interface {
	// ring wakes the peer. Called only after consumerParked() returned true,
	// so the steady state writes nothing.
	ring() error
	// wait blocks until the peer rings (draining any backlog of stale
	// doorbell bytes). A zero deadline blocks indefinitely; otherwise an
	// expired deadline returns an error.
	wait(deadline time.Time) error
}

// doorbellByte is the byte a ring() writes; the value is irrelevant.
var doorbellByte = [1]byte{1}
