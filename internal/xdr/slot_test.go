package xdr

import (
	"errors"
	"testing"
)

// The frame codec writes a descriptor at fixed offsets; the reference walk
// in frame_ref_test.go encodes and decodes it with these.

// PutSlotDescriptor encodes a slot descriptor.
func (e *Encoder) PutSlotDescriptor(s SlotDescriptor) {
	e.PutUint32(s.Index)
	e.PutUint32(s.Length)
	e.PutUint32(s.Generation)
}

// SlotDescriptor decodes a slot descriptor.
func (d *Decoder) SlotDescriptor() (SlotDescriptor, error) {
	var s SlotDescriptor
	var err error
	if s.Index, err = d.Uint32(); err != nil {
		return SlotDescriptor{}, err
	}
	if s.Length, err = d.Uint32(); err != nil {
		return SlotDescriptor{}, err
	}
	if s.Generation, err = d.Uint32(); err != nil {
		return SlotDescriptor{}, err
	}
	return s, nil
}

// appendSlot and decodeSlot run a descriptor through the reference walk.
func appendSlot(dst []byte, s SlotDescriptor) []byte {
	e := Encoder{buf: dst}
	e.PutSlotDescriptor(s)
	return e.buf
}

func decodeSlot(data []byte) (SlotDescriptor, error) {
	d := Decoder{buf: data}
	return d.SlotDescriptor()
}

func TestSlotDescriptorRoundTrip(t *testing.T) {
	s := SlotDescriptor{Index: 7, Length: 1462, Generation: 3}
	wire := appendSlot(nil, s)
	if len(wire) != SlotDescriptorWireSize {
		t.Fatalf("wire size = %d, want %d", len(wire), SlotDescriptorWireSize)
	}
	got, err := decodeSlot(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got != s {
		t.Fatalf("round trip = %+v, want %+v", got, s)
	}
}

func TestSlotDescriptorAppendPreservesPrefix(t *testing.T) {
	prefix := []byte{0xAA, 0xBB, 0xCC, 0xDD}
	wire := appendSlot(append([]byte(nil), prefix...), SlotDescriptor{Index: 1, Length: 2, Generation: 3})
	if len(wire) != len(prefix)+SlotDescriptorWireSize {
		t.Fatalf("len = %d", len(wire))
	}
	for i, b := range prefix {
		if wire[i] != b {
			t.Fatalf("prefix clobbered at %d", i)
		}
	}
	got, err := decodeSlot(wire[len(prefix):])
	if err != nil || got.Generation != 3 {
		t.Fatalf("decode after prefix: %+v, %v", got, err)
	}
}

func TestSlotDescriptorShortBuffer(t *testing.T) {
	wire := appendSlot(nil, SlotDescriptor{Index: 1, Length: 2, Generation: 3})
	for n := 0; n < len(wire); n++ {
		if _, err := decodeSlot(wire[:n]); !errors.Is(err, ErrShortBuffer) {
			t.Fatalf("truncated at %d: err = %v, want ErrShortBuffer", n, err)
		}
	}
}

func TestSlotDescriptorValidity(t *testing.T) {
	if (SlotDescriptor{}).Valid() {
		t.Fatal("zero descriptor must be invalid (generation 0 is reserved)")
	}
	if !(SlotDescriptor{Generation: 1}).Valid() {
		t.Fatal("generation 1 descriptor must be valid")
	}
}

func TestSlotDescriptorEncoderPrimitives(t *testing.T) {
	e := &Encoder{}
	e.PutSlotDescriptor(SlotDescriptor{Index: 9, Length: 64, Generation: 2})
	d := &Decoder{buf: e.buf}
	got, err := d.SlotDescriptor()
	if err != nil {
		t.Fatal(err)
	}
	if got.Index != 9 || got.Length != 64 || got.Generation != 2 {
		t.Fatalf("got %+v", got)
	}
	if d.Remaining() != 0 {
		t.Fatalf("descriptor left %d bytes undecoded", d.Remaining())
	}
}
