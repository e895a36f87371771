package xpc

import "decafdrivers/internal/kernel"

// FlushPipeline is a FIFO of in-flight flushes, each pairing a flush's
// aggregate Completion (from FlushAsync) with the payload (a batch of
// frames, say) whose onward handling waits on it. Drivers push each flush
// here and reap at safe points. Every transport settles a flush during
// submission, so the pipeline depth never exceeds one and delivery happens
// in the pushing call.
//
// The zero value is ready to use. Not safe for concurrent use: a pipeline
// belongs to one driver context (the paths that push and reap are already
// serialized by the driver).
type FlushPipeline[T any] struct {
	entries []flushEntry[T]
}

type flushEntry[T any] struct {
	done    *Completion
	payload T
}

// Push appends an in-flight flush and its payload.
//
//decaf:hotpath
func (p *FlushPipeline[T]) Push(done *Completion, payload T) {
	//decaf:allowalloc grows to the deepest overlap the driver allows (its maxInFlight) and is reused from there: Reap shifts down, it never reslices the front away
	p.entries = append(p.entries, flushEntry[T]{done: done, payload: payload})
}

// Len reports the flushes pushed and not yet reaped.
func (p *FlushPipeline[T]) Len() int { return len(p.entries) }

// pop removes the oldest entry by shifting the rest down — a handful at
// most, the depth is bounded by the driver — so the queue always starts at
// the front of its backing array and Push never has to regrow it, and the
// vacated slot is cleared so a reaped payload is not pinned.
func (p *FlushPipeline[T]) pop() {
	n := copy(p.entries, p.entries[1:])
	p.entries[n] = flushEntry[T]{}
	p.entries = p.entries[:n]
}

// Reap pops every leading flush whose completion has settled, calling
// deliver on the payload of each successful flush and drop on each failed
// one (a contained fault drops only its own flush). With force, the oldest
// flush is waited for first, so callers can bound the pipeline depth.
// Returns the first flush error.
//
//decaf:hotpath
func (p *FlushPipeline[T]) Reap(ctx *kernel.Context, force bool, deliver func(T), drop func(T, error)) error {
	var first error
	for len(p.entries) > 0 {
		e := p.entries[0]
		if !force && !e.done.Settled() {
			break
		}
		force = false
		err := e.done.Wait(ctx)
		p.pop()
		if err != nil {
			if drop != nil {
				drop(e.payload, err)
			}
			if first == nil {
				first = err
			}
			continue
		}
		deliver(e.payload)
	}
	return first
}

// Drain force-reaps every in-flight flush, waiting each completion out.
func (p *FlushPipeline[T]) Drain(ctx *kernel.Context, deliver func(T), drop func(T, error)) error {
	var first error
	for len(p.entries) > 0 {
		if err := p.Reap(ctx, true, deliver, drop); err != nil && first == nil {
			first = err
		}
	}
	return first
}
