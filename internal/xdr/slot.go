package xdr

// SlotDescriptor is the wire form of a zero-copy payload reference: instead
// of marshaling payload bytes across the boundary, a data-carrying call
// encodes the (index, length, generation) of a buffer in a payload ring that
// both sides registered at initialization — the direct-transfer optimization
// the paper proposes in §4.2 for the driver data path. The descriptor is
// twelve bytes on the wire regardless of payload size.
//
// Generation 0 is never issued by a ring, so the zero SlotDescriptor means
// "no slot" and a call carrying it falls back to full payload marshaling.
type SlotDescriptor struct {
	// Index is the slot's position in the registered ring.
	Index uint32
	// Length is the payload's length in bytes (<= the ring's slot size).
	Length uint32
	// Generation is the slot's allocation generation; a receiver rejects a
	// descriptor whose generation does not match the slot's current one
	// (stale reference: the slot was recycled).
	Generation uint32
}

// SlotDescriptorWireSize is the encoded size of a SlotDescriptor: three XDR
// unsigned ints.
const SlotDescriptorWireSize = 12

// Valid reports whether the descriptor references a slot (rings never issue
// generation 0).
func (s SlotDescriptor) Valid() bool { return s.Generation != 0 }
