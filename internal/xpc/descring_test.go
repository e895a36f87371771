package xpc

import (
	"encoding/binary"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
)

// occupancy reports the published-but-unconsumed slot count: the tests'
// oracle for a ring's state. The transport never needs it — its gauge
// counts publish runs — so it reads both indices fresh.
func (q *descRing) occupancy() uint64 { return q.hdr.head.Load() - q.hdr.tail.Load() }

// alignedRegion returns an 8-byte-aligned heap region for ring tests — the
// same alignment guarantee an mmap mapping gives the real transport.
func alignedRegion(n int) []byte {
	buf := make([]uint64, (n+7)/8)
	return unsafe.Slice((*byte)(unsafe.Pointer(&buf[0])), n)
}

// chanDoorbell is the in-process doorbell double: tests drive the
// park/unpark handshake through a channel instead of a socketpair, so the
// race detector sees the full protocol.
type chanDoorbell struct {
	ch chan struct{}
}

func newChanDoorbell() chanDoorbell { return chanDoorbell{ch: make(chan struct{}, 64)} }

func (d chanDoorbell) ring() error {
	select {
	case d.ch <- struct{}{}:
	default: // a pending wake already covers this ring
	}
	return nil
}

var errDoorbellTimeout = errors.New("doorbell wait timed out")

func (d chanDoorbell) wait(deadline time.Time) error {
	if deadline.IsZero() {
		<-d.ch
		return nil
	}
	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
	select {
	case <-d.ch:
		return nil
	case <-timer.C:
		return errDoorbellTimeout
	}
}

// twoSides lays producer-side and consumer-side descRing views over the
// same region, the way the parent and worker processes each construct their
// own ring over the shared mapping.
func twoSides(t testing.TB, entries, slotSize int) (prod, cons *descRing) {
	t.Helper()
	region := alignedRegion(descRingBytes(entries, slotSize))
	var err error
	if prod, err = newDescRing(region, entries, slotSize); err != nil {
		t.Fatal(err)
	}
	if cons, err = newDescRing(region, entries, slotSize); err != nil {
		t.Fatal(err)
	}
	return prod, cons
}

func TestDescRingValidation(t *testing.T) {
	region := alignedRegion(descRingBytes(8, 64))
	cases := []struct {
		name          string
		entries, slot int
		region        []byte
	}{
		{"entries not power of two", 6, 64, region},
		{"zero entries", 0, 64, region},
		{"slot too small", 8, 4, region},
		{"region too small", 8, 64, region[:len(region)-1]},
		{"region misaligned", 8, 64, region[1:]},
	}
	for _, tc := range cases {
		if _, err := newDescRing(tc.region, tc.entries, tc.slot); err == nil {
			t.Errorf("%s: constructed successfully", tc.name)
		}
	}
	if _, err := newDescRing(region, 8, 64); err != nil {
		t.Fatalf("valid geometry rejected: %v", err)
	}
}

// TestDescRingFIFOWrapAround: sequenced items must come out in order
// through many wrap-arounds of a small ring.
func TestDescRingFIFOWrapAround(t *testing.T) {
	prod, cons := twoSides(t, 4, 16)
	const total = 64
	sent := 0
	for got := 0; got < total; {
		for sent < total {
			slot := prod.reserve()
			if slot == nil {
				break // full: drain first
			}
			binary.BigEndian.PutUint64(slot, uint64(sent))
			prod.publish()
			sent++
		}
		slot := cons.pending()
		if slot == nil {
			t.Fatalf("ring empty with %d sent, %d consumed", sent, got)
		}
		if v := binary.BigEndian.Uint64(slot); v != uint64(got) {
			t.Fatalf("slot %d carries %d", got, v)
		}
		cons.advance()
		got++
	}
	if cons.pending() != nil || prod.occupancy() != 0 {
		t.Fatal("ring not empty after draining everything")
	}
}

// TestDescRingBackpressure: a full ring must refuse reservations until the
// consumer advances, and never overwrite unconsumed slots.
func TestDescRingBackpressure(t *testing.T) {
	prod, cons := twoSides(t, 2, 16)
	for i := 0; i < 2; i++ {
		slot := prod.reserve()
		if slot == nil {
			t.Fatalf("reserve %d failed on an empty ring", i)
		}
		binary.BigEndian.PutUint64(slot, uint64(100+i))
		prod.publish()
	}
	if prod.reserve() != nil {
		t.Fatal("reserve succeeded on a full ring")
	}
	if got := binary.BigEndian.Uint64(cons.pending()); got != 100 {
		t.Fatalf("head slot = %d, want 100", got)
	}
	cons.advance()
	slot := prod.reserve()
	if slot == nil {
		t.Fatal("reserve failed after one advance")
	}
	binary.BigEndian.PutUint64(slot, 102)
	prod.publish()
	for want := uint64(101); want <= 102; want++ {
		if got := binary.BigEndian.Uint64(cons.pending()); got != want {
			t.Fatalf("drained %d, want %d", got, want)
		}
		cons.advance()
	}
}

// TestDescRingConcurrentStress: a real producer goroutine against a real
// consumer goroutine over the shared header, with parking on both sides —
// run under -race this exercises the publication, reclamation and
// no-lost-wakeup invariants documented in descring.go.
func TestDescRingConcurrentStress(t *testing.T) {
	prod, cons := twoSides(t, 8, 16)
	bell := newChanDoorbell()
	const total = 20000
	const timeout = 30 * time.Second
	errc := make(chan error, 1)
	go func() {
		for i := 0; i < total; i++ {
			slot := prod.reserve()
			for slot == nil {
				slot = prod.reserve()
			}
			binary.BigEndian.PutUint64(slot, uint64(i))
			prod.publish()
			if prod.consumerParked() {
				_ = bell.ring()
			}
		}
		errc <- nil
	}()
	for i := 0; i < total; i++ {
		slot, _, err := cons.awaitSlot(bell, timeout)
		if err != nil {
			t.Fatalf("item %d: %v", i, err)
		}
		if v := binary.BigEndian.Uint64(slot); v != uint64(i) {
			t.Fatalf("item %d carries %d: slots reordered or overwritten", i, v)
		}
		cons.advance()
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}

// TestDescRingParkWakeRaces: force the park path on every item by keeping
// the producer strictly behind the consumer, so each await parks and each
// publish must win the no-lost-wakeup race.
func TestDescRingParkWakeRaces(t *testing.T) {
	prod, cons := twoSides(t, 4, 16)
	bell := newChanDoorbell()
	const total = 300
	const timeout = 30 * time.Second
	ready := make(chan struct{})
	go func() {
		for i := 0; i < total; i++ {
			<-ready // consumer is already waiting (usually parked)
			slot := prod.reserve()
			binary.BigEndian.PutUint64(slot, uint64(i))
			prod.publish()
			if prod.consumerParked() {
				_ = bell.ring()
			}
		}
	}()
	wakes := 0
	for i := 0; i < total; i++ {
		ready <- struct{}{}
		slot, w, err := cons.awaitSlot(bell, timeout)
		if err != nil {
			t.Fatalf("item %d: %v (lost wakeup?)", i, err)
		}
		wakes += w
		if v := binary.BigEndian.Uint64(slot); v != uint64(i) {
			t.Fatalf("item %d carries %d", i, v)
		}
		cons.advance()
	}
	t.Logf("%d doorbell wakes across %d forced-park items", wakes, total)
}

// TestDescRingAwaitDeadline: a parked consumer with no producer must fail
// at its deadline, not hang — the wedged-worker backstop.
func TestDescRingAwaitDeadline(t *testing.T) {
	_, cons := twoSides(t, 4, 16)
	bell := newChanDoorbell()
	start := time.Now()
	_, _, err := cons.awaitSlot(bell, 50*time.Millisecond)
	if err == nil {
		t.Fatal("awaitSlot returned a slot from an empty ring")
	}
	if time.Since(start) > 10*time.Second {
		t.Fatal("deadline ignored")
	}
	if cons.hdr.parked.Load() != 0 {
		t.Fatal("consumer left itself parked after a failed wait")
	}
}

// TestCarveLanesLayout: the lane carver must validate its region, and two
// independent carves over the same bytes (the two processes' views) must
// share ring state through the mapping.
func TestCarveLanesLayout(t *testing.T) {
	const lanes, entries, slotSize = 3, 4, 16
	region := alignedRegion(laneRegionBytes(lanes, entries, slotSize))
	if _, _, err := carveLanes(region[:len(region)-1], lanes, entries, slotSize); err == nil {
		t.Fatal("carve succeeded over a short region")
	}
	if _, _, err := carveLanes(region, 0, entries, slotSize); err == nil {
		t.Fatal("carve succeeded with zero lanes")
	}
	dirA, ringsA, err := carveLanes(region, lanes, entries, slotSize)
	if err != nil {
		t.Fatal(err)
	}
	dirB, ringsB, err := carveLanes(region, lanes, entries, slotSize)
	if err != nil {
		t.Fatal(err)
	}
	dirA.parked.Store(1)
	if dirB.parked.Load() != 1 {
		t.Fatal("lane directory views do not share the parked flag")
	}
	dirA.parked.Store(0)
	for i := 0; i < lanes; i++ {
		slot := ringsA[i].sub.reserve()
		if slot == nil {
			t.Fatalf("lane %d: reserve failed on an empty ring", i)
		}
		binary.BigEndian.PutUint64(slot, uint64(1000+i))
		ringsA[i].sub.publish()
		got := ringsB[i].sub.pending()
		if got == nil {
			t.Fatalf("lane %d: publication invisible through the second view", i)
		}
		if v := binary.BigEndian.Uint64(got); v != uint64(1000+i) {
			t.Fatalf("lane %d carries %d: lanes overlap", i, v)
		}
		ringsB[i].sub.advance()
	}
}

// TestDescRingLaneStressWrapAround: K producers hammer a small carved lane
// array through the full multi-lane protocol — lock-free CAS lane claims,
// full-ring-occupancy batches across many index wraparounds, worker-wide
// park on the lane directory, per-lane completion doorbells — against one
// sweeping consumer. Per-lane scratch (the sequence counters) is plain
// memory synchronized only by the claim word, so under -race this checks
// invariant 4's happens-before edge along with 5 and 6 (see descring.go).
func TestDescRingLaneStressWrapAround(t *testing.T) {
	const (
		laneCount = 3
		entries   = 4
		slotSize  = 16
		producers = 8
		batches   = 250
		batchN    = entries // full-ring occupancy every batch
	)
	region := alignedRegion(laneRegionBytes(laneCount, entries, slotSize))
	prodDir, prodRings, err := carveLanes(region, laneCount, entries, slotSize)
	if err != nil {
		t.Fatal(err)
	}
	consDir, consRings, err := carveLanes(region, laneCount, entries, slotSize)
	if err != nil {
		t.Fatal(err)
	}
	subBell := newChanDoorbell()
	laneBells := make([]chanDoorbell, laneCount)
	for i := range laneBells {
		laneBells[i] = newChanDoorbell()
	}
	claims := make([]atomic.Uint32, laneCount)
	seqs := make([]uint64, laneCount) // owned by the lane's claim holder

	done := make(chan struct{})
	var consumed sync.WaitGroup
	consumed.Add(1)
	go func() { // the serveLanes double: sweep, echo, park worker-wide
		defer consumed.Done()
		spins := 0
		for {
			select {
			case <-done:
				return
			default:
			}
			served := false
			for l := range consRings {
				for {
					slot := consRings[l].sub.pending()
					if slot == nil {
						break
					}
					v := binary.BigEndian.Uint64(slot)
					consRings[l].sub.advance()
					out := consRings[l].cmp.reserve()
					for out == nil {
						runtime.Gosched()
						out = consRings[l].cmp.reserve()
					}
					binary.BigEndian.PutUint64(out, v)
					consRings[l].cmp.publish()
					if consRings[l].cmp.consumerParked() {
						_ = laneBells[l].ring()
					}
					served = true
				}
			}
			if served {
				spins = 0
				continue
			}
			spins++
			if spins < 256 {
				runtime.Gosched()
				continue
			}
			consDir.parked.Store(1)
			again := false
			for l := range consRings {
				if consRings[l].sub.pending() != nil {
					again = true
					break
				}
			}
			if !again {
				// Bounded wait so a protocol bug fails the test instead of
				// hanging it; a timeout just re-checks done and the lanes.
				_ = subBell.wait(time.Now().Add(100 * time.Millisecond))
			}
			consDir.parked.Store(0)
			spins = 0
		}
	}()

	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			const timeout = 30 * time.Second
			for b := 0; b < batches; b++ {
				lane := -1
				for lane < 0 {
					for i := 0; i < laneCount; i++ {
						l := (p + b + i) % laneCount
						if claims[l].CompareAndSwap(0, 1) {
							lane = l
							break
						}
					}
					if lane < 0 {
						runtime.Gosched()
					}
				}
				for i := 0; i < batchN; i++ {
					slot := prodRings[lane].sub.reserve()
					if slot == nil {
						t.Errorf("producer %d: lane %d submit ring full after a drained batch", p, lane)
						claims[lane].Store(0)
						return
					}
					seqs[lane]++
					binary.BigEndian.PutUint64(slot, seqs[lane])
					prodRings[lane].sub.publish()
				}
				if prodDir.parked.Swap(0) == 1 {
					_ = subBell.ring()
				}
				base := seqs[lane] - batchN
				for i := 0; i < batchN; i++ {
					slot, _, err := prodRings[lane].cmp.awaitSlot(laneBells[lane], timeout)
					if err != nil {
						t.Errorf("producer %d: lane %d completion %d: %v", p, lane, i, err)
						claims[lane].Store(0)
						return
					}
					if v := binary.BigEndian.Uint64(slot); v != base+uint64(i)+1 {
						t.Errorf("producer %d: lane %d completion carries %d, want %d: per-lane FIFO broken",
							p, lane, v, base+uint64(i)+1)
						claims[lane].Store(0)
						return
					}
					prodRings[lane].cmp.advance()
				}
				claims[lane].Store(0)
			}
		}(p)
	}
	wg.Wait()
	close(done)
	consumed.Wait()
	var total uint64
	for l := range seqs {
		total += seqs[l]
	}
	if want := uint64(producers * batches * batchN); total != want {
		t.Fatalf("lanes carried %d items, want %d", total, want)
	}
}

// TestDescRingReset: reset must restore a used ring to empty with no parked
// flag, the state a freshly spawned worker expects. As in every epoch, the
// consumer is a view carved after the reset: a view kept across it would
// still hold the old epoch's private tail.
func TestDescRingReset(t *testing.T) {
	prod, cons := twoSides(t, 4, 16)
	for i := 0; i < 3; i++ {
		binary.BigEndian.PutUint64(prod.reserve(), uint64(i))
		prod.publish()
	}
	cons.advance()
	cons.park()
	prod.reset()
	_, cons = recarve(t, prod)
	if prod.occupancy() != 0 || cons.pending() != nil || prod.consumerParked() {
		t.Fatal("reset left state behind")
	}
}

// recarve lays fresh producer and consumer views over q's region, as
// ensureEpochLocked (and a freshly spawned worker) does for every epoch.
func recarve(t testing.TB, q *descRing) (prod, cons *descRing) {
	t.Helper()
	entries := int(q.entries)
	region := unsafe.Slice((*byte)(unsafe.Pointer(q.hdr)), descRingBytes(entries, q.slotSize))
	var err error
	if prod, err = newDescRing(region, entries, q.slotSize); err != nil {
		t.Fatal(err)
	}
	if cons, err = newDescRing(region, entries, q.slotSize); err != nil {
		t.Fatal(err)
	}
	return prod, cons
}

// TestDescRingOwnIndexIgnoresPeerScribble: each view keeps the index it
// alone writes in private memory, so a peer that scribbles on that word in
// the mapping — the worker on the submit ring's head, or on the completion
// ring's tail — neither moves the owner's next slot nor survives the
// owner's next store. A view carved over a live, non-empty ring starts at
// the header's indices.
func TestDescRingOwnIndexIgnoresPeerScribble(t *testing.T) {
	const entries = 4
	slotAt := func(q *descRing, idx uint64) *byte { return &q.buf[int(idx&q.mask)*q.slotSize] }

	// Seeding: three slots published and one consumed, then fresh views.
	prod, cons := twoSides(t, entries, 16)
	for i := uint64(0); i < 3; i++ {
		binary.BigEndian.PutUint64(prod.reserve(), i)
		prod.publish()
	}
	cons.advance()
	prod, cons = recarve(t, prod)
	if prod.ownHead != 3 || cons.ownTail != 1 {
		t.Fatalf("views carved over a live ring start at head %d tail %d, want 3 and 1", prod.ownHead, cons.ownTail)
	}
	if s := cons.pending(); s == nil || binary.BigEndian.Uint64(s) != 1 {
		t.Fatal("a fresh consumer view does not start at the header's tail")
	}
	if s := prod.reserve(); s == nil || &s[0] != slotAt(prod, 3) {
		t.Fatal("a fresh producer view does not start at the header's head")
	}

	// Submit ring: the consumer scribbles the producer's head.
	for _, scribble := range []uint64{0, 1, 3 + entries, ^uint64(0)} {
		head := prod.ownHead
		prod.hdr.head.Store(scribble)
		s := prod.reserve()
		if s == nil || &s[0] != slotAt(prod, head) {
			t.Fatalf("head scribbled to %d: reserve returned slot=%v, want the slot at the private head %d", scribble, s != nil, head)
		}
		binary.BigEndian.PutUint64(s, head)
		prod.publish()
		if got := prod.hdr.head.Load(); got != head+1 {
			t.Fatalf("head scribbled to %d: publish stored %d, want %d", scribble, got, head+1)
		}
		if s := cons.pending(); s == nil || binary.BigEndian.Uint64(s) != cons.ownTail {
			t.Fatalf("head scribbled to %d: the consumer lost the FIFO", scribble)
		}
		cons.advance()
	}

	// Completion ring: the producer scribbles the consumer's tail.
	prod, cons = twoSides(t, entries, 16)
	for i := uint64(0); i < 2; i++ {
		binary.BigEndian.PutUint64(prod.reserve(), i)
		prod.publish()
	}
	for i, scribble := range []uint64{2, 0, 7} {
		tail := cons.ownTail
		cons.hdr.tail.Store(scribble)
		s := cons.pending()
		if s == nil || &s[0] != slotAt(cons, tail) || binary.BigEndian.Uint64(s) != tail {
			t.Fatalf("tail scribbled to %d: pending returned slot=%v, want the slot at the private tail %d", scribble, s != nil, tail)
		}
		cons.advance()
		if got := cons.hdr.tail.Load(); got != tail+1 {
			t.Fatalf("tail scribbled to %d: advance stored %d, want %d", scribble, got, tail+1)
		}
		binary.BigEndian.PutUint64(prod.reserve(), uint64(i)+2)
		prod.publish()
	}
}

// TestDescRingCachedIndices runs a fixed schedule over two views and checks
// that the cached peer indices are conservative and epoch-local: reserve
// refuses only when the real ring is full, pending returns nil only when it
// is really empty — both also when the cache is stale — a publication made
// while the consumer's cache was stale is seen by the re-check after park,
// and views carved after a reset start with zero indices. After every step
// neither cache is ahead of the index it copies, and each view's own index
// equals the header word it writes.
func TestDescRingCachedIndices(t *testing.T) {
	const entries = 4
	prod, cons := twoSides(t, entries, 16)
	var next uint64
	check := func(step string) {
		t.Helper()
		if prod.peerTail > prod.hdr.tail.Load() || cons.peerHead > cons.hdr.head.Load() {
			t.Fatalf("%s: cache ahead of the ring (tail %d cached %d, head %d cached %d)", step,
				prod.hdr.tail.Load(), prod.peerTail, cons.hdr.head.Load(), cons.peerHead)
		}
		if prod.ownHead != prod.hdr.head.Load() || cons.ownTail != cons.hdr.tail.Load() {
			t.Fatalf("%s: private index off the ring (head %d own %d, tail %d own %d)", step,
				prod.hdr.head.Load(), prod.ownHead, cons.hdr.tail.Load(), cons.ownTail)
		}
	}
	produce := func(step string) bool {
		t.Helper()
		slot := prod.reserve()
		if full := prod.occupancy() == entries; (slot == nil) != full {
			t.Fatalf("%s: reserve returned slot=%v with the ring full=%v", step, slot != nil, full)
		}
		if slot != nil {
			binary.BigEndian.PutUint64(slot, next)
			prod.publish()
			next++
		}
		check(step)
		return slot != nil
	}
	consume := func(step string, want uint64) bool {
		t.Helper()
		slot := cons.pending()
		if empty := prod.occupancy() == 0; (slot == nil) != empty {
			t.Fatalf("%s: pending returned slot=%v with the ring empty=%v", step, slot != nil, empty)
		}
		if slot != nil {
			if got := binary.BigEndian.Uint64(slot); got != want {
				t.Fatalf("%s: slot carries %d, want %d", step, got, want)
			}
			cons.advance()
		}
		check(step)
		return slot != nil
	}

	// Several wraps of lockstep traffic: each side reloads only when its
	// cache says full or empty.
	for i := uint64(0); i < 3*entries; i++ {
		if !produce("lockstep") || !consume("lockstep", i) {
			t.Fatal("lockstep traffic stalled")
		}
	}
	base := next

	// Full ring, then a stale tail cache: the consumer frees two slots the
	// producer has not seen; the cache says full, so reserve reloads.
	for i := 0; i < entries; i++ {
		produce("fill")
	}
	if produce("full") {
		t.Fatal("reserve succeeded on a full ring")
	}
	consume("drain", base)
	consume("drain", base+1)
	if prod.peerTail == prod.hdr.tail.Load() {
		t.Fatal("schedule did not leave the producer's cache stale")
	}
	if !produce("stale tail") || !produce("stale tail") {
		t.Fatal("reserve refused with free slots behind a stale tail cache")
	}
	if produce("full again") {
		t.Fatal("reserve succeeded on a full ring")
	}

	// Empty ring, then a stale head cache: the consumer drains to the head
	// it cached, and the producer publishes behind its back.
	for i := base + 2; i < next; i++ {
		consume("drain", i)
	}
	if consume("empty", 0) {
		t.Fatal("pending returned a slot from an empty ring")
	}
	produce("behind the cache")
	if cons.peerHead == cons.hdr.head.Load() {
		t.Fatal("schedule did not leave the consumer's cache stale")
	}
	if !consume("stale head", next-1) {
		t.Fatal("pending returned nil with a slot published behind a stale head cache")
	}

	// Invariant 3: the consumer finds the ring empty, the producer publishes
	// before the park (its swap sees no parked flag, so it rings nothing),
	// and the re-check after park must see the publication through the
	// stale cache. A budget of zero goes straight to park; a missed
	// re-check would block on the silent doorbell until it times out.
	if consume("empty", 0) {
		t.Fatal("pending returned a slot from an empty ring")
	}
	produce("before park")
	if prod.consumerParked() {
		t.Fatal("producer saw a park that has not happened")
	}
	slot, wakes, err := cons.awaitSlotBudget(newChanDoorbell(), 50*time.Millisecond, 0, nil)
	if err != nil || slot == nil || wakes != 0 {
		t.Fatalf("post-park re-check: slot=%v wakes=%d err=%v", slot != nil, wakes, err)
	}
	if got := binary.BigEndian.Uint64(slot); got != next-1 {
		t.Fatalf("re-check slot carries %d, want %d", got, next-1)
	}
	cons.advance()
	check("re-check")

	// A new epoch: reset through the producer's view clears its caches, and
	// the views carved afterwards start from zero and see an empty ring.
	produce("before reset")
	prod.reset()
	if prod.peerTail != 0 || prod.peerHead != 0 || prod.ownHead != 0 || prod.ownTail != 0 {
		t.Fatalf("reset left the resetting view's indices at tail %d head %d, own head %d tail %d",
			prod.peerTail, prod.peerHead, prod.ownHead, prod.ownTail)
	}
	prod, cons = recarve(t, prod)
	if prod.peerTail != 0 || prod.peerHead != 0 || cons.peerTail != 0 || cons.peerHead != 0 ||
		prod.ownHead != 0 || cons.ownTail != 0 {
		t.Fatal("freshly carved views start with non-zero indices")
	}
	if consume("new epoch", 0) {
		t.Fatal("a fresh epoch's ring is not empty")
	}
	for i := 0; i < entries; i++ {
		produce("new epoch")
	}
	if produce("new epoch full") {
		t.Fatal("reserve succeeded on a full ring in the new epoch")
	}
	for i := next - entries; i < next; i++ {
		consume("new epoch", i)
	}
}
