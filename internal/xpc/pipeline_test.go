package xpc

import (
	"errors"
	"testing"
)

// pending fabricates an admitted, unresolved completion and returns it with
// the function that resolves it, letting the pipeline tests decide when each
// flush settles.
func pending(r *Runtime, name string) (*Completion, func(err error, fault bool)) {
	sub := r.NewSubmission(&Call{Name: name, Up: true})
	r.Admit([]*Submission{sub})
	c := sub.Completion
	return c, func(err error, fault bool) { c.resolve(err, fault, 0) }
}

// resolved is a pending completion resolved at once.
func resolved(r *Runtime, name string, err error, fault bool) *Completion {
	c, resolve := pending(r, name)
	resolve(err, fault)
	return c
}

func TestFlushPipelineReapOrdering(t *testing.T) {
	k := newTestKernel()
	r := newDecafRuntime(k)
	ctx := k.NewContext("t")
	var p FlushPipeline[int]

	a, resolveA := pending(r, "a")
	b, resolveB := pending(r, "b")
	c, resolveC := pending(r, "c")
	p.Push(a, 1)
	p.Push(b, 2)
	p.Push(c, 3)
	if p.Len() != 3 {
		t.Fatalf("Len = %d", p.Len())
	}

	var got []int
	deliver := func(v int) { got = append(got, v) }
	drop := func(v int, err error) { t.Fatalf("dropped %d: %v", v, err) }

	// Only settled flushes reap, oldest first; the first unsettled flush
	// stops the sweep even when a later one has settled.
	resolveA(nil, false)
	resolveC(nil, false)
	if err := p.Reap(ctx, false, deliver, drop); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 1 || p.Len() != 2 {
		t.Fatalf("after partial reap: got %v, Len %d", got, p.Len())
	}
	resolveB(nil, false)
	if err := p.Reap(ctx, false, deliver, drop); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("FIFO order violated: %v", got)
	}
	if p.Len() != 0 {
		t.Fatalf("Len after full reap = %d", p.Len())
	}

	// With force the oldest flush is waited out, however late it settles.
	d, resolveD := pending(r, "d")
	p.Push(d, 4)
	go resolveD(nil, false)
	if err := p.Reap(ctx, true, deliver, drop); err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 || got[3] != 4 || p.Len() != 0 {
		t.Fatalf("forced reap: got %v, Len %d", got, p.Len())
	}
}

func TestFlushPipelineContainedFaultDropsOnlyItsFlush(t *testing.T) {
	k := newTestKernel()
	r := newDecafRuntime(k)
	ctx := k.NewContext("t")
	var p FlushPipeline[int]

	fault := &UserFault{Call: "rx", Cause: "nil deref"}
	p.Push(resolved(r, "rx", nil, false), 1)
	p.Push(resolved(r, "rx", fault, true), 2)
	p.Push(resolved(r, "rx", nil, false), 3)

	var delivered, dropped []int
	var dropErr error
	err := p.Reap(ctx, false,
		func(v int) { delivered = append(delivered, v) },
		func(v int, e error) { dropped = append(dropped, v); dropErr = e })
	// The fault fails its own flush and is reported, but the kernel-side
	// sweep continues: later settled flushes still deliver.
	var uf *UserFault
	if !errors.As(err, &uf) {
		t.Fatalf("Reap error = %v, want the contained fault", err)
	}
	if len(delivered) != 2 || delivered[0] != 1 || delivered[1] != 3 {
		t.Fatalf("delivered %v, want [1 3]", delivered)
	}
	if len(dropped) != 1 || dropped[0] != 2 || !errors.As(dropErr, &uf) {
		t.Fatalf("dropped %v (err %v), want [2] with the fault", dropped, dropErr)
	}
	if p.Len() != 0 {
		t.Fatalf("Len = %d", p.Len())
	}
}

func TestFlushPipelineDrainWaitsEverything(t *testing.T) {
	k := newTestKernel()
	r := newDecafRuntime(k)
	ctx := k.NewContext("t")
	var p FlushPipeline[int]

	boom := errors.New("flush failed")
	last, resolveLast := pending(r, "x")
	p.Push(resolved(r, "x", nil, false), 1)
	p.Push(resolved(r, "x", boom, false), 2)
	p.Push(last, 3)
	go resolveLast(nil, false)

	var delivered, dropped []int
	err := p.Drain(ctx,
		func(v int) { delivered = append(delivered, v) },
		func(v int, _ error) { dropped = append(dropped, v) })
	if !errors.Is(err, boom) {
		t.Fatalf("Drain error = %v, want first flush error", err)
	}
	if len(delivered) != 2 || len(dropped) != 1 || p.Len() != 0 {
		t.Fatalf("delivered %v dropped %v Len %d", delivered, dropped, p.Len())
	}
}

// TestFlushPipelineSteadyStateAllocFree: a pipeline cycling at the depth the
// drivers hold it to reuses one backing array for good — whether each reap
// empties it or, with traffic always in flight, it never empties at all.
// Popping by reslicing the front away (the earlier shape) walked the slice
// off the end of its array every few flushes and reallocated for ever.
func TestFlushPipelineSteadyStateAllocFree(t *testing.T) {
	k := newTestKernel()
	r := newDecafRuntime(k)
	ctx := k.NewContext("t")
	settled := resolved(r, "settled", nil, false)
	payload := new(int)
	delivered := 0
	deliver := func(*int) { delivered++ }
	drop := func(*int, error) { t.Error("dropped a successful flush") }

	var drained FlushPipeline[*int]
	drainCycle := func() {
		for i := 0; i < 4; i++ {
			drained.Push(settled, payload)
		}
		if err := drained.Reap(ctx, false, deliver, drop); err != nil {
			t.Error(err)
		}
	}
	drainCycle()
	if allocs := testing.AllocsPerRun(200, drainCycle); allocs != 0 {
		t.Errorf("push 4 / reap 4: %v allocs per cycle, want 0", allocs)
	}

	// Never empty: every cycle leaves an unsettled flush at the tail, which
	// settles before the next cycle reaps it. Two handles take turns, one
	// settling at the head while the other is pushed unsettled.
	head := resolved(r, "head", nil, false)
	tail := resolved(r, "tail", nil, false)
	var busy FlushPipeline[*int]
	head.ch.Store(nil)
	busy.Push(head, payload)
	busyCycle := func() {
		head.ch.Store(settledCh)
		tail.ch.Store(nil)
		busy.Push(settled, payload)
		busy.Push(tail, payload)
		if err := busy.Reap(ctx, false, deliver, drop); err != nil {
			t.Error(err)
		}
		if busy.Len() != 1 {
			t.Errorf("Len = %d after the cycle, want the one unsettled flush", busy.Len())
		}
		head, tail = tail, head
	}
	busyCycle()
	if allocs := testing.AllocsPerRun(200, busyCycle); allocs != 0 {
		t.Errorf("never-empty pipeline: %v allocs per cycle, want 0", allocs)
	}
}

// TestFlushPipelineReapUnpinsPayload: a reaped entry's slot in the backing
// array is cleared, so the pipeline does not keep a delivered flight (and
// the frames it lists) reachable until the slot happens to be overwritten.
func TestFlushPipelineReapUnpinsPayload(t *testing.T) {
	k := newTestKernel()
	r := newDecafRuntime(k)
	ctx := k.NewContext("t")
	var p FlushPipeline[*int]
	for i := 0; i < 3; i++ {
		p.Push(resolved(r, "x", nil, false), new(int))
	}
	if err := p.Reap(ctx, false, func(*int) {}, nil); err != nil {
		t.Fatal(err)
	}
	for i, e := range p.entries[:3] {
		if e.done != nil || e.payload != nil {
			t.Fatalf("slot %d still holds its reaped entry: %+v", i, e)
		}
	}
}

// TestFlightPoolRecyclesFlights: after the first flight, staging and
// releasing allocate nothing — the item and payload lists are the ones an
// earlier flight handed back — and a released flight keeps neither its
// items nor a copy-path payload's bytes reachable.
func TestFlightPoolRecyclesFlights(t *testing.T) {
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
	var pool FlightPool[*[]byte]
	stage := func(frames []*[]byte) Flight[*[]byte] {
		f := pool.Get()
		for _, b := range frames {
			f.Stage(r, b, *b)
		}
		return f
	}
	f := stage(frames)
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
	pool.Release(r, f)
	if ring.InUse() != 0 {
		t.Fatalf("%d slots still held after Release", ring.InUse())
	}
	for i := range f.Items[:len(frames)] {
		if f.Items[:len(frames)][i] != nil || f.Payloads[:len(frames)][i].Data != nil {
			t.Fatalf("released flight still reaches item %d", i)
		}
	}

	again := stage(frames[:2])
	if &again.Items[0] != &f.Items[:1][0] {
		t.Fatal("the second flight did not reuse the first one's item list")
	}
	pool.Release(r, again)
	cycle := func() { pool.Release(r, stage(frames)) }
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Fatalf("stage + release: %v allocs per flight, want 0", allocs)
	}
}
