package xdr

import "testing"

type benchRing struct {
	Count uint32
	Head  uint32
	Tail  uint32
}

type benchAdapter struct {
	Name      string
	MsgEnable int32
	LinkUp    bool
	MAC       [6]byte
	EEPROM    [64]uint16
	Tx        benchRing
	Rx        benchRing
	Stats     [8]uint64
	Next      *benchRing
}

func benchValue() *benchAdapter {
	a := &benchAdapter{Name: "eth0", MsgEnable: 3, LinkUp: true}
	for i := range a.EEPROM {
		a.EEPROM[i] = uint16(i * 13)
	}
	a.Tx = benchRing{Count: 256, Head: 12, Tail: 200}
	a.Next = &a.Tx // pointer + back-reference path
	return a
}

// BenchmarkMarshal is the seed codec path: a fresh buffer every call.
func BenchmarkMarshal(b *testing.B) {
	c := &Codec{}
	v := benchValue()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := c.Marshal(v); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMarshalAppend is the pooled path: the caller recycles one buffer,
// and the codec recycles its encoder state, so steady-state marshaling does
// not allocate.
func BenchmarkMarshalAppend(b *testing.B) {
	c := &Codec{}
	v := benchValue()
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out, err := c.MarshalAppend(buf[:0], v)
		if err != nil {
			b.Fatal(err)
		}
		buf = out
	}
}

// BenchmarkRoundTrip is one sync leg: marshal into a reused buffer, then
// unmarshal over an existing object — the XPC steady state.
func BenchmarkRoundTrip(b *testing.B) {
	c := &Codec{}
	src := benchValue()
	dst := benchValue()
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out, err := c.MarshalAppend(buf[:0], src)
		if err != nil {
			b.Fatal(err)
		}
		buf = out
		// &dst so the decoder consumes the top-level pointer marker and
		// updates the existing object, as the XPC sync legs do.
		if err := c.Unmarshal(buf, &dst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMarshalMasked measures the field-mask fast path.
func BenchmarkMarshalMasked(b *testing.B) {
	c := &Codec{Mask: FieldMask{"benchAdapter": {"MsgEnable": true, "LinkUp": true}}}
	v := benchValue()
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out, err := c.MarshalAppend(buf[:0], v)
		if err != nil {
			b.Fatal(err)
		}
		buf = out
	}
}

// benchFrames are the two frames every ring crossing carries: a handler
// call with a full-size inline payload, and its completion.
func benchFrames() []struct {
	name string
	f    Frame
} {
	return []struct {
		name string
		f    Frame
	}{
		{"call", Frame{Kind: FrameCall, ID: 7, Up: true, Name: "e1000_xmit_frame", Aux: 31, Lane: 2, Data: make([]byte, 1462)}},
		{"complete", Frame{Kind: FrameComplete, ID: 7, Aux: 0xCBF29CE484222325, Lane: 2}},
	}
}

// BenchmarkAppendFrame encodes into a reused slot-sized buffer, as both
// processes do into a descriptor-ring slot. CI runs it with -benchmem and
// gates allocs/op at zero.
func BenchmarkAppendFrame(b *testing.B) {
	for _, bf := range benchFrames() {
		b.Run(bf.name, func(b *testing.B) {
			slot := make([]byte, 0, 2048)
			b.SetBytes(int64(FrameWireSize(bf.f)))
			b.ReportAllocs()
			for b.Loop() {
				if _, err := AppendFrame(slot[:0], bf.f); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDecodeFrameView decodes in place, as the worker does per submit
// descriptor. CI runs it with -benchmem and gates allocs/op at zero.
func BenchmarkDecodeFrameView(b *testing.B) {
	for _, bf := range benchFrames() {
		b.Run(bf.name, func(b *testing.B) {
			wire, err := AppendFrame(nil, bf.f)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(wire)))
			b.ReportAllocs()
			for b.Loop() {
				if _, _, _, err := DecodeFrameView(wire); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
