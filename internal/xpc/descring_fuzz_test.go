package xpc

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzDescRing drives the SPSC ring through an arbitrary operation stream
// against a FIFO model: values must come out in publication order, a full
// ring must refuse reservations, occupancy must track the model exactly,
// the park flag must behave as a consume-once declaration, neither view's
// cached peer index may ever be ahead of the real one, and each view's
// private index must equal the header word it writes. A re-carve
// op starts a new epoch the way ensureEpochLocked does: reset through one
// view, then fresh views over the same region. The committed seed corpus
// under testdata/fuzz covers fill/drain, wrap-around, full-ring
// backpressure, park interleavings, stale tail and head caches, and
// re-carves after several wraps; `go test -fuzz=FuzzDescRing` grows it from
// there.
func FuzzDescRing(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 1, 1})                // fill then drain
	f.Add(bytes.Repeat([]byte{0, 1}, 16))          // lockstep wrap-around
	f.Add([]byte{0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 3}) // overfill, drain, occupancy
	f.Add([]byte{2, 0, 2, 1, 2, 3, 0, 0, 1, 2})    // park interleavings
	f.Add([]byte{0, 1, 0, 0, 4, 1, 0, 1, 3})       // re-carve with slots in flight
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, ops []byte) {
		const entries, slotSize = 4, 16
		prod, cons := twoSides(t, entries, slotSize)
		var model []uint64
		var next uint64
		for _, op := range ops {
			switch op % 5 {
			case 0: // produce
				slot := prod.reserve()
				if slot == nil {
					if len(model) != entries {
						t.Fatalf("reserve refused with %d of %d slots used", len(model), entries)
					}
					continue
				}
				if len(model) >= entries {
					t.Fatal("reserve succeeded on a full ring")
				}
				if len(slot) != slotSize {
					t.Fatalf("slot is %dB, want %d", len(slot), slotSize)
				}
				binary.BigEndian.PutUint64(slot, next)
				prod.publish()
				model = append(model, next)
				next++
			case 1: // consume
				slot := cons.pending()
				if slot == nil {
					if len(model) != 0 {
						t.Fatalf("pending nil with %d published slots", len(model))
					}
					continue
				}
				if len(model) == 0 {
					t.Fatal("pending returned a slot from an empty ring")
				}
				if v := binary.BigEndian.Uint64(slot); v != model[0] {
					t.Fatalf("slot carries %d, model head is %d: FIFO broken", v, model[0])
				}
				cons.advance()
				model = model[1:]
			case 2: // park is a consume-once declaration
				cons.park()
				if !prod.consumerParked() {
					t.Fatal("park not observed by the producer")
				}
				if prod.consumerParked() {
					t.Fatal("parked flag not consumed by the swap")
				}
			case 3: // occupancy tracks the model
				if got := prod.occupancy(); got != uint64(len(model)) {
					t.Fatalf("occupancy %d, model holds %d", got, len(model))
				}
			case 4: // a new epoch: reset through one view, carve fresh ones
				if op%2 == 0 {
					prod.reset()
				} else {
					cons.reset()
				}
				prod, cons = recarve(t, prod)
				model = model[:0]
			}
			if prod.peerTail > prod.hdr.tail.Load() || cons.peerHead > cons.hdr.head.Load() {
				t.Fatalf("cached peer index ahead of the ring: tail %d cached %d, head %d cached %d",
					prod.hdr.tail.Load(), prod.peerTail, cons.hdr.head.Load(), cons.peerHead)
			}
			if prod.ownHead != prod.hdr.head.Load() || cons.ownTail != cons.hdr.tail.Load() {
				t.Fatalf("private index off the ring: head %d own %d, tail %d own %d",
					prod.hdr.head.Load(), prod.ownHead, cons.hdr.tail.Load(), cons.ownTail)
			}
		}
	})
}
