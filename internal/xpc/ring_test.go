package xpc

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"decafdrivers/internal/decaf/registry"
	"decafdrivers/internal/xdr"
)

// ringObserved collects, in dispatch order, a copy of the payload bytes each
// ringtest_observe body saw.
var ringObserved observedFrames

type observedFrames struct {
	mu     sync.Mutex
	frames [][]byte
}

// reset hands back what was observed so far and starts over.
func (o *observedFrames) reset() [][]byte {
	o.mu.Lock()
	defer o.mu.Unlock()
	got := o.frames
	o.frames = nil
	return got
}

func init() {
	registry.Register("ringtest_observe", registry.Handler{Fn: func(c *registry.Ctx) error {
		ringObserved.mu.Lock()
		defer ringObserved.mu.Unlock()
		ringObserved.frames = append(ringObserved.frames, append([]byte(nil), c.Data...))
		return nil
	}})
}

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
	if !p.Direct() {
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
	if p.Direct() || len(p.Data) != 3 {
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
	if p := r.AcquirePayload([]byte("x")); !p.Direct() {
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
	if !p.Direct() {
		t.Fatal("expected slot-backed payload")
	}
	b := r.Batch(ctx)
	b.UpcallHandlerPayload("xpcbench_sink", p)
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
	b.UpcallHandlerData("xpcbench_sink", data)
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
	if !first.Direct() {
		t.Fatal("first acquire should take the ring's only slot")
	}
	second := r.AcquirePayload([]byte("overflow"))
	if second.Direct() {
		t.Fatal("second acquire should fall back: ring exhausted")
	}
	b := r.Batch(ctx)
	b.UpcallHandlerPayload("xpcbench_sink", second)
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

// TestAsyncInFlightBatchImmuneToSourceMutation is the ownership-rule
// regression test: once a payload is queued (pre-flush) and the batch is in
// flight under the async transport, mutating the caller's source slice must
// not corrupt what the decaf side observes. Slot-backed payloads snapshot
// contents at acquire time; the copy (Data) path aliases the slice but the
// crossing engine reads only its header, so the batch's accounting is also
// unaffected. Run under -race: the concurrent mutation must not race the
// service goroutine.
func TestAsyncInFlightBatchImmuneToSourceMutation(t *testing.T) {
	k := newTestKernel()
	r, _ := newAsyncRuntime(k, AsyncConfig{Batch: 4})
	defer r.SetTransport(nil)
	ctx := k.NewContext("t")
	if err := r.RegisterPayloadRing(ctx, NewPayloadRing(8, 64)); err != nil {
		t.Fatal(err)
	}
	r.ResetCounters()

	const frames = 4
	srcs := make([][]byte, frames)
	payloads := make([]Payload, frames)
	ringObserved.reset()
	b := r.Batch(ctx)
	for i := 0; i < frames; i++ {
		srcs[i] = []byte{byte('a' + i), 2, 3, 4}
		payloads[i] = r.AcquirePayload(srcs[i])
		if !payloads[i].Direct() {
			t.Fatalf("payload %d not slot-backed", i)
		}
		// The decaf side resolves the descriptor against the shared ring —
		// the zero-copy read — and the handler keeps what it saw.
		b.UpcallHandlerPayload("ringtest_observe", payloads[i])
	}
	// Queued but not flushed: scribble over every source slice.
	for i := range srcs {
		for j := range srcs[i] {
			srcs[i][j] = 0xFF
		}
	}
	// Also queue an aliased copy-path call and keep mutating its source
	// while the flush is in flight: the engine must not read the contents.
	aliased := []byte{9, 9, 9, 9, 9, 9, 9, 9}
	b.UpcallHandlerData("xpcbench_sink", aliased)
	done := b.FlushAsync()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				aliased[0]++
			}
		}
	}()
	err := done.Wait(ctx)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	observed := ringObserved.reset()
	if len(observed) != frames {
		t.Fatalf("handler observed %d frames, want %d", len(observed), frames)
	}
	for i := 0; i < frames; i++ {
		want := byte('a' + i)
		if len(observed[i]) != 4 || observed[i][0] != want {
			t.Fatalf("frame %d observed %v, want first byte %q (slot snapshot corrupted)", i, observed[i], want)
		}
	}
	c := r.Counters()
	if c.DirectTransfers != frames {
		t.Fatalf("DirectTransfers = %d, want %d", c.DirectTransfers, frames)
	}
	// The aliased call's accounting used the slice header it was queued
	// with: 8 bytes + the XDR length prefix.
	if c.BytesPayloadCopied != 8+4 {
		t.Fatalf("BytesPayloadCopied = %d, want 12", c.BytesPayloadCopied)
	}
	for _, p := range payloads {
		r.ReleasePayload(p)
	}
}
