package xpc

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"decafdrivers/internal/xdr"
)

func TestPayloadRingAcquireReleaseRecycles(t *testing.T) {
	p := NewPayloadRing(4, 128)
	if p.Slots() != 4 || p.SlotSize() != 128 {
		t.Fatalf("geometry = %d/%d", p.Slots(), p.SlotSize())
	}
	s, buf, ok := p.Acquire(100)
	if !ok || len(buf) != 100 || !s.Valid() {
		t.Fatalf("Acquire = %+v, %d bytes, ok=%v", s, len(buf), ok)
	}
	copy(buf, bytes.Repeat([]byte{0x5A}, 100))
	got, err := p.Buffer(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 100 || got[0] != 0x5A {
		t.Fatalf("Buffer = %d bytes, first %#x", len(got), got[0])
	}
	if p.InUse() != 1 || p.Peak() != 1 {
		t.Fatalf("InUse=%d Peak=%d", p.InUse(), p.Peak())
	}
	if err := p.Release(s); err != nil {
		t.Fatal(err)
	}
	if p.InUse() != 0 {
		t.Fatalf("InUse after release = %d", p.InUse())
	}
	// The slot is recyclable: a full ring's worth of acquisitions succeeds.
	for i := 0; i < p.Slots(); i++ {
		if _, _, ok := p.Acquire(1); !ok {
			t.Fatalf("acquire %d failed after recycle", i)
		}
	}
}

func TestPayloadRingGenerationInvalidatesStaleRefs(t *testing.T) {
	p := NewPayloadRing(2, 64)
	s, _, ok := p.Acquire(10)
	if !ok {
		t.Fatal("acquire failed")
	}
	if err := p.Release(s); err != nil {
		t.Fatal(err)
	}
	// The released descriptor is stale: resolving or re-releasing it fails
	// and bumps the stale counter, even after the slot is reacquired.
	if _, err := p.Buffer(s); err == nil {
		t.Fatal("Buffer of released slot succeeded")
	}
	if err := p.Release(s); err == nil {
		t.Fatal("double release succeeded")
	}
	s2, _, ok := p.Acquire(10)
	if !ok {
		t.Fatal("reacquire failed")
	}
	if s2.Index == s.Index && s2.Generation == s.Generation {
		t.Fatal("recycled slot reused the old generation")
	}
	if _, err := p.Buffer(s); err == nil {
		t.Fatal("stale descriptor resolved against reacquired slot")
	}
	if p.Stale() < 3 {
		t.Fatalf("Stale = %d, want >= 3", p.Stale())
	}
}

func TestPayloadRingExhaustionAndOversize(t *testing.T) {
	p := NewPayloadRing(2, 64)
	if _, _, ok := p.Acquire(65); ok {
		t.Fatal("oversized acquire succeeded")
	}
	for i := 0; i < 2; i++ {
		if _, _, ok := p.Acquire(64); !ok {
			t.Fatalf("acquire %d failed", i)
		}
	}
	if _, _, ok := p.Acquire(1); ok {
		t.Fatal("acquire on empty ring succeeded")
	}
	if p.Exhausted() != 2 {
		t.Fatalf("Exhausted = %d, want 2 (one oversize, one empty)", p.Exhausted())
	}
}

func TestPayloadRingConcurrentAcquireRelease(t *testing.T) {
	p := NewPayloadRing(8, 32)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				s, buf, ok := p.Acquire(16)
				if !ok {
					continue // exhausted under contention: the fallback path
				}
				buf[0] = byte(i)
				if _, err := p.Buffer(s); err != nil {
					t.Error(err)
					return
				}
				if err := p.Release(s); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if p.InUse() != 0 {
		t.Fatalf("InUse = %d after all releases", p.InUse())
	}
	if p.Stale() != 0 {
		t.Fatalf("Stale = %d, want 0", p.Stale())
	}
}

func TestAcquirePayloadSnapshotsContents(t *testing.T) {
	k := newTestKernel()
	r := newDecafRuntime(k)
	ctx := k.NewContext("t")
	if err := r.RegisterPayloadRing(ctx, NewPayloadRing(4, 64)); err != nil {
		t.Fatal(err)
	}
	src := []byte("payload-ring snapshot")
	p := r.AcquirePayload(src)
	if !p.Slot.Valid() {
		t.Fatal("expected a slot-backed payload")
	}
	// Mutating the source after staging must not reach the slot: the ring
	// snapshotted the bytes at acquire time.
	src[0] = 'X'
	buf, err := r.PayloadRing().Buffer(p.Slot)
	if err != nil {
		t.Fatal(err)
	}
	if buf[0] != 'p' {
		t.Fatalf("slot contents mutated through the source slice: %q", buf)
	}
	r.ReleasePayload(p)
	if r.PayloadRing().InUse() != 0 {
		t.Fatal("ReleasePayload did not recycle the slot")
	}
}

func TestAcquirePayloadFallsBackWithoutRing(t *testing.T) {
	k := newTestKernel()
	r := newDecafRuntime(k)
	data := []byte{1, 2, 3}
	p := r.AcquirePayload(data)
	if p.Slot.Valid() || len(p.Data) != 3 {
		t.Fatalf("payload without a ring = %+v", p)
	}
	r.ReleasePayload(p) // must be a harmless no-op
}

func TestRegisterPayloadRingCrossesOnce(t *testing.T) {
	k := newTestKernel()
	r := newDecafRuntime(k)
	ctx := k.NewContext("t")
	if err := r.RegisterPayloadRing(ctx, NewPayloadRing(4, 64)); err != nil {
		t.Fatal(err)
	}
	if c := r.Counters(); c.Trips() != 1 {
		t.Fatalf("registration crossed %d times, want 1", c.Trips())
	}
	if err := r.RegisterPayloadRing(ctx, NewPayloadRing(4, 64)); !errors.Is(err, ErrPayloadRingRegistered) {
		t.Fatalf("second registration: %v", err)
	}
	if c := r.Counters(); c.RingCapacity != 4 {
		t.Fatalf("RingCapacity = %d", c.RingCapacity)
	}
}

func TestRegisterPayloadRingNativeModeNoCrossing(t *testing.T) {
	k := newTestKernel()
	r := NewRuntime(k, "test", ModeNative, nil)
	if err := r.RegisterPayloadRing(k.NewContext("t"), NewPayloadRing(2, 64)); err != nil {
		t.Fatal(err)
	}
	if c := r.Counters(); c.Trips() != 0 {
		t.Fatalf("native registration crossed %d times", c.Trips())
	}
	if p := r.AcquirePayload([]byte("x")); !p.Slot.Valid() {
		t.Fatal("native-mode acquire did not use the ring")
	}
}

func TestSlotPayloadCountsDirectBytes(t *testing.T) {
	k := newTestKernel()
	r := newDecafRuntime(k)
	ctx := k.NewContext("t")
	if err := r.RegisterPayloadRing(ctx, NewPayloadRing(4, 2048)); err != nil {
		t.Fatal(err)
	}
	r.ResetCounters()

	data := bytes.Repeat([]byte{0xAB}, 1000)
	p := r.AcquirePayload(data)
	if !p.Slot.Valid() {
		t.Fatal("expected slot-backed payload")
	}
	b := r.Batch(ctx)
	b.CallPayload(hSink, p)
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	r.ReleasePayload(p)

	c := r.Counters()
	if c.BytesPayloadDirect != 1000 || c.DirectTransfers != 1 {
		t.Fatalf("direct bytes/transfers = %d/%d", c.BytesPayloadDirect, c.DirectTransfers)
	}
	if c.BytesPayloadCopied != 0 || c.CopiedTransfers != 0 {
		t.Fatalf("copy path charged on a direct transfer: %d/%d", c.BytesPayloadCopied, c.CopiedTransfers)
	}
	// Only the 12-byte descriptor crossed the process boundary.
	if c.BytesKernelUser != xdr.SlotDescriptorWireSize {
		t.Fatalf("BytesKernelUser = %d, want %d", c.BytesKernelUser, xdr.SlotDescriptorWireSize)
	}
}

func TestCopyPayloadCountsCopiedBytes(t *testing.T) {
	k := newTestKernel()
	r := newDecafRuntime(k)
	ctx := k.NewContext("t")
	r.ResetCounters()

	data := bytes.Repeat([]byte{0xCD}, 500)
	b := r.Batch(ctx)
	b.CallData(hSink, data)
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	c := r.Counters()
	want := uint64(500 + 4) // payload plus XDR length prefix
	if c.BytesPayloadCopied != want || c.CopiedTransfers != 1 {
		t.Fatalf("copied bytes/transfers = %d/%d, want %d/1", c.BytesPayloadCopied, c.CopiedTransfers, want)
	}
	if c.BytesPayloadDirect != 0 {
		t.Fatalf("BytesPayloadDirect = %d on the copy path", c.BytesPayloadDirect)
	}
}

func TestExhaustedRingFallsBackToCopy(t *testing.T) {
	k := newTestKernel()
	r := newDecafRuntime(k)
	ctx := k.NewContext("t")
	if err := r.RegisterPayloadRing(ctx, NewPayloadRing(1, 64)); err != nil {
		t.Fatal(err)
	}
	r.ResetCounters()

	first := r.AcquirePayload([]byte("held"))
	if !first.Slot.Valid() {
		t.Fatal("first acquire should take the ring's only slot")
	}
	second := r.AcquirePayload([]byte("overflow"))
	if second.Slot.Valid() {
		t.Fatal("second acquire should fall back: ring exhausted")
	}
	b := r.Batch(ctx)
	b.CallPayload(hSink, second)
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	c := r.Counters()
	if c.CopiedTransfers != 1 || c.DirectTransfers != 0 {
		t.Fatalf("fallback accounting: copied=%d direct=%d", c.CopiedTransfers, c.DirectTransfers)
	}
	if c.RingExhausted != 1 {
		t.Fatalf("RingExhausted = %d, want 1", c.RingExhausted)
	}
	r.ReleasePayload(first)
	r.ReleasePayload(second)
}

// TestFlightReleaseRecyclesLists: a flight released and staged again reuses
// its own item and payload lists, so after the first flush staging and
// releasing allocate nothing; Release hands every payload slot back, and a
// released flight keeps neither its items nor a copy-path payload's bytes
// reachable.
func TestFlightReleaseRecyclesLists(t *testing.T) {
	k := newTestKernel()
	r := newDecafRuntime(k)
	ctx := k.NewContext("t")
	ring := NewPayloadRing(4, 64)
	if err := r.RegisterPayloadRing(ctx, ring); err != nil {
		t.Fatal(err)
	}
	frames := make([]*[]byte, 6) // two more than the ring has slots
	for i := range frames {
		b := []byte{byte(i), 1, 2, 3}
		frames[i] = &b
	}
	var f Flight[*[]byte]
	stage := func(frames []*[]byte) {
		for _, b := range frames {
			f.Stage(r, b, *b)
		}
	}
	stage(frames)
	if len(f.Items) != len(frames) || len(f.Payloads) != len(frames) {
		t.Fatalf("flight carries %d items / %d payloads, want %d", len(f.Items), len(f.Payloads), len(frames))
	}
	for i, p := range f.Payloads {
		if direct := i < ring.Slots(); p.Slot.Valid() != direct {
			t.Fatalf("payload %d direct = %v: the ring has %d slots, the rest fall back to the copy path", i, p.Slot.Valid(), ring.Slots())
		}
	}
	if ring.Exhausted() != 2 {
		t.Fatalf("Exhausted = %d, want the 2 frames past the ring", ring.Exhausted())
	}
	items, payloads := f.Items, f.Payloads
	f.Release(r)
	if ring.InUse() != 0 {
		t.Fatalf("%d slots still held after Release", ring.InUse())
	}
	if len(f.Items) != 0 || len(f.Payloads) != 0 {
		t.Fatalf("released flight still carries %d items / %d payloads", len(f.Items), len(f.Payloads))
	}
	for i := range items {
		if items[i] != nil || payloads[i].Data != nil {
			t.Fatalf("released flight still reaches item %d", i)
		}
	}

	stage(frames[:2])
	if &f.Items[0] != &items[0] {
		t.Fatal("the next flush did not reuse the flight's item list")
	}
	f.Release(r)
	cycle := func() {
		stage(frames)
		f.Release(r)
	}
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Fatalf("stage + release: %v allocs per flight, want 0", allocs)
	}
}
