package xdr

import (
	"bytes"
	"testing"
)

// FuzzDecodeFrame drives DecodeFrame with arbitrary bytes: it must never
// panic, never over-consume, and anything it accepts must re-encode to an
// equivalent frame (the codec is its own inverse on the accepted set); the
// in-place DecodeFrameView must reach the same verdict on every input. The
// committed seed corpus under testdata/fuzz covers every frame kind plus
// truncated and bit-flipped variants; `go test -fuzz=FuzzDecodeFrame` grows
// it from there.
func FuzzDecodeFrame(f *testing.F) {
	for _, fr := range everyFrameKind() {
		wire, err := AppendFrame(nil, fr)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(wire)
		if len(wire) > 5 {
			f.Add(wire[:len(wire)-3]) // truncated tail
			flipped := append([]byte(nil), wire...)
			flipped[4] ^= 0x40 // corrupt kind byte
			f.Add(flipped)
		}
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})

	f.Fuzz(func(t *testing.T, data []byte) {
		viewAgrees(t, data)
		fr, n, err := DecodeFrame(data)
		if err != nil {
			return
		}
		if n < frameFixedSize+4 || n > len(data) {
			t.Fatalf("accepted frame consumed %d of %d bytes", n, len(data))
		}
		wire, err := AppendFrame(nil, fr)
		if err != nil {
			t.Fatalf("accepted frame %+v fails to re-encode: %v", fr, err)
		}
		back, m, err := DecodeFrame(wire)
		if err != nil {
			t.Fatalf("re-encoded frame fails to decode: %v", err)
		}
		if m != len(wire) || back.Kind != fr.Kind || back.ID != fr.ID || back.Up != fr.Up ||
			back.Inject != fr.Inject || back.Name != fr.Name || back.Slot != fr.Slot ||
			back.Status != fr.Status || back.Aux != fr.Aux || back.Lane != fr.Lane ||
			!bytes.Equal(back.Data, fr.Data) {
			t.Fatalf("codec not self-inverse:\n first %+v\nsecond %+v", fr, back)
		}
	})
}
