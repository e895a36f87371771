package xdr

import (
	"bytes"
	"encoding/hex"
	"errors"
	"strings"
	"testing"
)

// everyFrameKind returns one representative frame per wire kind, exercising
// every field combination the protocol produces.
func everyFrameKind() []Frame {
	return []Frame{
		{Kind: FrameSubmit, ID: 1, Up: true, Name: "e1000_xmit_frame",
			Data: []byte{0xDE, 0xAD, 0xBE, 0xEF, 0x01}},
		{Kind: FrameSubmit, ID: 2, Up: false, Name: "eeprom_read",
			Slot: SlotDescriptor{Index: 7, Length: 1462, Generation: 3}, Lane: 3},
		{Kind: FrameSubmit, ID: 3, Up: true, Name: "watchdog"},
		{Kind: FrameComplete, ID: 2, Status: 0, Aux: 0xCBF29CE484222325, Lane: 3},
		{Kind: FrameComplete, ID: 9, Status: 2, Name: "slot out of range", Lane: 7},
		{Kind: FrameCall, ID: 11, Up: true, Name: "e1000_xmit_frame", Aux: 3,
			Slot: SlotDescriptor{Index: 2, Length: 640, Generation: 1}, Lane: 2},
		{Kind: FrameCall, ID: 12, Up: true, Inject: true, Name: "ens1371_trigger",
			Data: []byte{0x01}},
		{Kind: FrameDown, ID: 11, Name: "e1000_read_status", Aux: 0x83},
		{Kind: FrameDownResult, ID: 11, Aux: 0x80080783},
		{Kind: FrameDownResult, ID: 12, Status: 1, Name: "unknown downcall"},
		// The lane-borne pair: a downcall rides the completion ring of the
		// lane its call was claimed on, the result that lane's submit ring.
		{Kind: FrameDown, ID: 14, Name: "netif_carrier_change", Aux: 1, Lane: 5},
		{Kind: FrameDownResult, ID: 14, Lane: 5},
	}
}

// retiredFrames returns one frame per retired kind — 3 to 7 and 11, the
// socket handshake the shared region's layout header replaced — encoded as
// the codec used to emit it. Every one is now corrupt.
func retiredFrames() [][]byte {
	var out [][]byte
	for _, r := range []struct {
		kind byte
		f    Frame
	}{
		{3, Frame{ID: 4, Aux: 256<<32 | 2048}},           // ring-register
		{4, Frame{ID: 5}},                                // ring-release
		{5, Frame{ID: 7}},                                // shutdown
		{6, Frame{ID: 8, Aux: 1024<<32 | 2048, Lane: 4}}, // desc-ring
		{7, Frame{ID: 10, Aux: 4096<<32 | 9}},            // trace-ring
		{11, Frame{ID: 13, Aux: 1<<20<<32 | 512}},        // state-map
	} {
		r.f.Kind = FrameComplete
		wire, err := AppendFrame(nil, r.f)
		if err != nil {
			panic(err)
		}
		wire[4] = r.kind
		out = append(out, wire)
	}
	return out
}

// viewAgrees decodes data with DecodeFrame and with DecodeFrameView and
// requires one verdict from both: the same accept/reject decision with the
// same error, the same bytes consumed, the same field values. The view must
// also agree with the reference walk (refAgrees).
func viewAgrees(t testing.TB, data []byte) {
	t.Helper()
	refAgrees(t, data)
	want, wn, werr := DecodeFrame(data)
	got, name, gn, gerr := DecodeFrameView(data)
	if (werr == nil) != (gerr == nil) || (werr != nil && werr.Error() != gerr.Error()) {
		t.Fatalf("DecodeFrame err = %v, DecodeFrameView err = %v on %x", werr, gerr, data)
	}
	if werr != nil {
		return
	}
	if gn != wn || got.Kind != want.Kind || got.ID != want.ID || got.Up != want.Up ||
		got.Inject != want.Inject || string(name) != want.Name || got.Slot != want.Slot ||
		got.Status != want.Status || got.Aux != want.Aux || got.Lane != want.Lane ||
		!bytes.Equal(got.Data, want.Data) || (got.Data == nil) != (want.Data == nil) {
		t.Fatalf("decodes disagree:\n copy %+v (%d bytes)\n view %+v name %q (%d bytes)", want, wn, got, name, gn)
	}
}

// frameGolden is the wire encoding of each everyFrameKind frame, in order,
// as the field-by-field XDR walk emitted it before the fixed-offset codec.
var frameGolden = []string{
	"00000044010100100000000000000001000000000000000000000000000000000000000000000000000000000000000565313030305f786d69745f6672616d65deadbeef01000000",
	"000000380100000b00000000000000020000000000000000000000000000000300000007000005b60000000300000000656570726f6d5f7265616400",
	"0000003401010008000000000000000300000000000000000000000000000000000000000000000000000000000000007761746368646f67",
	"0000002c02000000000000000000000200000000cbf29ce4842223250000000300000000000000000000000000000000",
	"000000400200001100000000000000090000000200000000000000000000000700000000000000000000000000000000736c6f74206f7574206f662072616e6765000000",
	"0000003c08010010000000000000000b000000000000000000000003000000020000000200000280000000010000000065313030305f786d69745f6672616d65",
	"000000400803000f000000000000000c0000000000000000000000000000000000000000000000000000000000000001656e73313337315f747269676765720001000000",
	"0000004009000011000000000000000b000000000000000000000083000000000000000000000000000000000000000065313030305f726561645f737461747573000000",
	"0000002c0a000000000000000000000b0000000000000000800807830000000000000000000000000000000000000000",
	"0000003c0a000010000000000000000c0000000100000000000000000000000000000000000000000000000000000000756e6b6e6f776e20646f776e63616c6c",
	"0000004009000014000000000000000e00000000000000000000000100000005000000000000000000000000000000006e657469665f636172726965725f6368616e6765",
	"0000002c0a000000000000000000000e0000000000000000000000000000000500000000000000000000000000000000",
}

// TestFrameGoldenBytes pins the wire format: every kind encodes to the bytes
// the reference walk emitted, whether appended to nothing, to a prefix, or
// into a reused buffer whose spare capacity holds stale bytes (a ring slot
// is never cleared between frames, so every pad byte must be written).
func TestFrameGoldenBytes(t *testing.T) {
	frames := everyFrameKind()
	if len(frames) != len(frameGolden) {
		t.Fatalf("%d frames, %d golden encodings", len(frames), len(frameGolden))
	}
	stale := bytes.Repeat([]byte{0xA5}, 512)
	for i, f := range frames {
		want, err := hex.DecodeString(frameGolden[i])
		if err != nil {
			t.Fatal(err)
		}
		for _, dst := range [][]byte{nil, []byte("pre"), stale[:0], stale[:5]} {
			prefix := append([]byte(nil), dst...)
			got, err := AppendFrame(dst, f)
			if err != nil {
				t.Fatalf("%v #%d: encode: %v", f.Kind, i, err)
			}
			if !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], want) {
				t.Errorf("%v #%d after %d bytes:\n got %x\nwant %x%x", f.Kind, i, len(prefix), got, prefix, want)
			}
			encodeAgrees(t, prefix, f)
		}
		if FrameWireSize(f) != len(want) {
			t.Errorf("%v #%d: FrameWireSize = %d, golden is %d bytes", f.Kind, i, FrameWireSize(f), len(want))
		}
		viewAgrees(t, want)
	}
}

// TestFrameWireSize: the size predictor must match AppendFrame exactly for
// every kind and field combination — the descriptor-ring fast path relies on
// it to prove an encode into a fixed slot cannot spill.
func TestFrameWireSize(t *testing.T) {
	for _, f := range everyFrameKind() {
		wire, err := AppendFrame(nil, f)
		if err != nil {
			t.Fatalf("%v: encode: %v", f.Kind, err)
		}
		if got := FrameWireSize(f); got != len(wire) {
			t.Errorf("%v: FrameWireSize = %d, encoded %d bytes", f.Kind, got, len(wire))
		}
	}
}

func TestFrameRoundTripEveryKind(t *testing.T) {
	for _, want := range everyFrameKind() {
		wire, err := AppendFrame(nil, want)
		if err != nil {
			t.Fatalf("%v: encode: %v", want.Kind, err)
		}
		if len(wire)%4 != 0 {
			t.Errorf("%v: wire length %d not 4-aligned", want.Kind, len(wire))
		}
		viewAgrees(t, wire)
		got, n, err := DecodeFrame(wire)
		if err != nil {
			t.Fatalf("%v: decode: %v", want.Kind, err)
		}
		if n != len(wire) {
			t.Errorf("%v: consumed %d of %d bytes", want.Kind, n, len(wire))
		}
		if got.Kind != want.Kind || got.ID != want.ID || got.Up != want.Up ||
			got.Inject != want.Inject || got.Name != want.Name || got.Slot != want.Slot ||
			got.Status != want.Status || got.Aux != want.Aux ||
			got.Lane != want.Lane || !bytes.Equal(got.Data, want.Data) {
			t.Errorf("%v: round trip\n got %+v\nwant %+v", want.Kind, got, want)
		}
	}
}

func TestFrameStreamDecodesBackToBack(t *testing.T) {
	frames := everyFrameKind()
	var wire []byte
	var err error
	for _, f := range frames {
		if wire, err = AppendFrame(wire, f); err != nil {
			t.Fatal(err)
		}
	}
	off := 0
	for i, want := range frames {
		got, n, err := DecodeFrame(wire[off:])
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Kind != want.Kind || got.ID != want.ID {
			t.Fatalf("frame %d: got %v/%d want %v/%d", i, got.Kind, got.ID, want.Kind, want.ID)
		}
		off += n
	}
	if off != len(wire) {
		t.Fatalf("stream left %d undecoded bytes", len(wire)-off)
	}
}

// TestFrameDecodeDoesNotAliasInput: the decoded frame must survive reuse of
// the read buffer it was decoded from — the wire buffer is recycled per
// read, while frames may outlive it.
func TestFrameDecodeDoesNotAliasInput(t *testing.T) {
	src := Frame{Kind: FrameSubmit, ID: 11, Up: true, Name: "tx", Data: []byte("payload!")}
	wire, err := AppendFrame(nil, src)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := DecodeFrame(wire)
	if err != nil {
		t.Fatal(err)
	}
	for i := range wire {
		wire[i] = 0xFF
	}
	if got.Name != "tx" || !bytes.Equal(got.Data, []byte("payload!")) {
		t.Fatalf("decoded frame aliases the wire buffer: %+v", got)
	}
}

// TestFrameViewAliasesInput: DecodeFrameView's lifetime rule is deliberate —
// the name and payload it returns ARE the input bytes (a write to the buffer
// shows through both), clipped so an append cannot write back into it.
func TestFrameViewAliasesInput(t *testing.T) {
	wire, err := AppendFrame(nil, Frame{Kind: FrameCall, ID: 11, Up: true, Name: "tx", Data: []byte("payload!")})
	if err != nil {
		t.Fatal(err)
	}
	f, name, _, err := DecodeFrameView(wire)
	if err != nil {
		t.Fatal(err)
	}
	if f.Name != "" || string(name) != "tx" || string(f.Data) != "payload!" {
		t.Fatalf("view = %+v, name %q", f, name)
	}
	nameOff, dataOff := 4+frameFixedSize, 4+frameFixedSize+4
	if &name[0] != &wire[nameOff] || &f.Data[0] != &wire[dataOff] {
		t.Fatal("view copied the name or payload out of the input")
	}
	wire[nameOff], wire[dataOff] = 'r', 'P'
	if string(name) != "rx" || string(f.Data) != "Payload!" {
		t.Fatalf("a write to the buffer did not show through the view: %q %q", name, f.Data)
	}
	if cap(name) != len(name) || cap(f.Data) != len(f.Data) {
		t.Fatalf("view capacity reaches past the field: name %d/%d, data %d/%d", len(name), cap(name), len(f.Data), cap(f.Data))
	}
}

// TestFrameViewAllocFree: decoding a full-size handler call in place — what
// the worker does per submit descriptor — allocates nothing.
func TestFrameViewAllocFree(t *testing.T) {
	wire, err := AppendFrame(nil, Frame{Kind: FrameCall, ID: 1, Up: true, Name: "e1000_xmit_frame", Aux: 31, Data: make([]byte, 1462)})
	if err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(100, func() {
		if _, _, _, err := DecodeFrameView(wire); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("DecodeFrameView allocates %.1f objects per frame, want 0", avg)
	}
}

// TestFrameEncodeDoesNotAliasSource: mutating the caller's payload slice
// after AppendFrame returns must not change the encoded bytes — the wire
// copy is taken at encode time (the cross-process half of the
// Batch.UpcallData ownership rule).
func TestFrameEncodeDoesNotAliasSource(t *testing.T) {
	data := []byte{1, 2, 3, 4}
	wire, err := AppendFrame(nil, Frame{Kind: FrameSubmit, ID: 1, Name: "tx", Data: data})
	if err != nil {
		t.Fatal(err)
	}
	snap := append([]byte(nil), wire...)
	for i := range data {
		data[i] = 0xAA
	}
	if !bytes.Equal(wire, snap) {
		t.Fatal("encoded frame aliases the caller's payload slice")
	}
}

func TestFrameTruncationAtEveryLength(t *testing.T) {
	for _, f := range everyFrameKind() {
		wire, err := AppendFrame(nil, f)
		if err != nil {
			t.Fatal(err)
		}
		for n := 0; n < len(wire); n++ {
			if _, _, err := DecodeFrame(wire[:n]); err == nil {
				t.Fatalf("%v: truncation to %d of %d bytes decoded successfully", f.Kind, n, len(wire))
			}
			viewAgrees(t, wire[:n])
		}
	}
}

func TestFrameRejectsCorruption(t *testing.T) {
	valid, err := AppendFrame(nil, Frame{Kind: FrameSubmit, ID: 1, Name: "tx", Data: []byte{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		mutate func(b []byte)
	}{
		{"zero kind", func(b []byte) { b[4] = 0 }},
		{"unknown kind", func(b []byte) { b[4] = 99 }},
		{"reserved flags", func(b []byte) { b[5] = 0x80 }},
		{"oversized name length", func(b []byte) { b[6] = 0xFF; b[7] = 0xFF }},
		{"length prefix too small", func(b []byte) { b[3] -= 4 }},
		{"length prefix too large", func(b []byte) { b[3] += 4 }},
		{"length prefix huge", func(b []byte) { b[0] = 0xFF }},
	}
	for _, tc := range cases {
		wire := append([]byte(nil), valid...)
		tc.mutate(wire)
		if _, _, err := DecodeFrame(wire); err == nil {
			t.Errorf("%s: decoded successfully", tc.name)
		}
		viewAgrees(t, wire)
	}
}

// TestFrameRetiredKindsRejected: a retired kind number neither decodes nor
// encodes — both directions report ErrFrameCorrupt — while the surviving
// kinds keep their numbers.
func TestFrameRetiredKindsRejected(t *testing.T) {
	for _, wire := range retiredFrames() {
		if _, _, err := DecodeFrame(wire); !errors.Is(err, ErrFrameCorrupt) {
			t.Errorf("retired kind %d: decode err = %v, want ErrFrameCorrupt", wire[4], err)
		}
		viewAgrees(t, wire)
		if _, err := AppendFrame(nil, Frame{Kind: FrameKind(wire[4])}); !errors.Is(err, ErrFrameCorrupt) {
			t.Errorf("retired kind %d: encode err = %v, want ErrFrameCorrupt", wire[4], err)
		}
	}
	for kind, want := range map[FrameKind]FrameKind{FrameSubmit: 1, FrameComplete: 2, FrameCall: 8, FrameDown: 9, FrameDownResult: 10} {
		if kind != want {
			t.Errorf("%v renumbered to %d, want %d", kind, uint8(kind), uint8(want))
		}
	}
}

func TestFrameEncodeRejectsOversize(t *testing.T) {
	if _, err := AppendFrame(nil, Frame{Kind: FrameSubmit, Name: strings.Repeat("x", MaxFrameName+1)}); !errors.Is(err, ErrFrameTooBig) {
		t.Errorf("oversized name: err = %v", err)
	}
	if _, err := AppendFrame(nil, Frame{Kind: FrameSubmit, Data: make([]byte, MaxFramePayload+1)}); !errors.Is(err, ErrFrameTooBig) {
		t.Errorf("oversized payload: err = %v", err)
	}
	if _, err := AppendFrame(nil, Frame{Kind: 0}); !errors.Is(err, ErrFrameCorrupt) {
		t.Errorf("invalid kind: err = %v", err)
	}
}
