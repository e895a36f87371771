package xdr

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

// refAppendFrame is the field-by-field XDR walk the fixed-offset
// AppendFrame replaced, kept as the reference its wire bytes are checked
// against.
func refAppendFrame(dst []byte, f Frame) ([]byte, error) {
	if !f.Kind.valid() {
		return dst, fmt.Errorf("%w: kind %d", ErrFrameCorrupt, f.Kind)
	}
	if len(f.Name) > MaxFrameName || len(f.Data) > MaxFramePayload {
		return dst, fmt.Errorf("%w: name %dB, payload %dB", ErrFrameTooBig, len(f.Name), len(f.Data))
	}
	var flags byte
	if f.Up {
		flags |= frameFlagUp
	}
	if f.Inject {
		flags |= frameFlagInject
	}
	body := frameFixedSize + len(f.Name) + pad(len(f.Name)) + len(f.Data) + pad(len(f.Data))
	e := Encoder{buf: dst}
	e.PutUint32(uint32(body))
	e.buf = append(e.buf, byte(f.Kind), flags, byte(len(f.Name)>>8), byte(len(f.Name)))
	e.PutUint64(f.ID)
	e.PutUint32(f.Status)
	e.PutUint64(f.Aux)
	e.PutUint32(f.Lane)
	e.PutSlotDescriptor(f.Slot)
	e.PutUint32(uint32(len(f.Data)))
	e.PutFixedOpaque([]byte(f.Name))
	e.PutFixedOpaque(f.Data)
	return e.buf, nil
}

// refDecodeFrameView is the Decoder walk the fixed-offset DecodeFrameView
// replaced, kept as the reference its verdicts are checked against.
func refDecodeFrameView(data []byte) (f Frame, name []byte, n int, err error) {
	d := Decoder{buf: data}
	body, err := d.Uint32()
	if err != nil {
		return Frame{}, nil, 0, err
	}
	if body > MaxFrameSize {
		return Frame{}, nil, 0, fmt.Errorf("%w: length %d exceeds max %d", ErrFrameCorrupt, body, MaxFrameSize)
	}
	if int(body) < frameFixedSize {
		return Frame{}, nil, 0, fmt.Errorf("%w: length %d below fixed size %d", ErrFrameCorrupt, body, frameFixedSize)
	}
	if d.Remaining() < int(body) {
		return Frame{}, nil, 0, fmt.Errorf("%w: frame needs %d bytes, have %d", ErrShortBuffer, body, d.Remaining())
	}
	hdr, _ := d.take(4)
	f.Kind = FrameKind(hdr[0])
	if !f.Kind.valid() {
		return Frame{}, nil, 0, fmt.Errorf("%w: kind %d", ErrFrameCorrupt, hdr[0])
	}
	flags := hdr[1]
	if flags&^byte(frameFlagUp|frameFlagInject) != 0 {
		return Frame{}, nil, 0, fmt.Errorf("%w: reserved flag bits %#x", ErrFrameCorrupt, flags)
	}
	f.Up = flags&frameFlagUp != 0
	f.Inject = flags&frameFlagInject != 0
	nameLen := int(hdr[2])<<8 | int(hdr[3])
	if nameLen > MaxFrameName {
		return Frame{}, nil, 0, fmt.Errorf("%w: name length %d", ErrFrameCorrupt, nameLen)
	}
	if f.ID, err = d.Uint64(); err != nil {
		return Frame{}, nil, 0, err
	}
	if f.Status, err = d.Uint32(); err != nil {
		return Frame{}, nil, 0, err
	}
	if f.Aux, err = d.Uint64(); err != nil {
		return Frame{}, nil, 0, err
	}
	if f.Lane, err = d.Uint32(); err != nil {
		return Frame{}, nil, 0, err
	}
	if f.Slot, err = d.SlotDescriptor(); err != nil {
		return Frame{}, nil, 0, err
	}
	dataLen, err := d.Uint32()
	if err != nil {
		return Frame{}, nil, 0, err
	}
	if dataLen > MaxFramePayload {
		return Frame{}, nil, 0, fmt.Errorf("%w: payload length %d", ErrFrameCorrupt, dataLen)
	}
	want := frameFixedSize + nameLen + pad(nameLen) + int(dataLen) + pad(int(dataLen))
	if int(body) != want {
		return Frame{}, nil, 0, fmt.Errorf("%w: length prefix %d, contents need %d", ErrFrameCorrupt, body, want)
	}
	name, _ = d.take(nameLen + pad(nameLen))
	name = name[:nameLen:nameLen]
	if dataLen > 0 {
		f.Data, _ = d.take(int(dataLen) + pad(int(dataLen)))
		f.Data = f.Data[:dataLen:dataLen]
	}
	return f, name, d.off, nil
}

// frameErrClass names the sentinel an error from the frame codec wraps.
func frameErrClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrShortBuffer):
		return "short"
	case errors.Is(err, ErrFrameCorrupt):
		return "corrupt"
	case errors.Is(err, ErrFrameTooBig):
		return "too big"
	}
	return "other: " + err.Error()
}

// refAgrees requires DecodeFrameView and the reference walk to reach one
// verdict on data: the same error class, and on acceptance the same bytes
// consumed and the same fields, views included.
func refAgrees(t testing.TB, data []byte) {
	t.Helper()
	want, wname, wn, werr := refDecodeFrameView(data)
	got, name, gn, gerr := DecodeFrameView(data)
	if frameErrClass(werr) != frameErrClass(gerr) {
		t.Fatalf("reference err = %v, DecodeFrameView err = %v on %x", werr, gerr, data)
	}
	if werr != nil {
		return
	}
	if gn != wn || got.Kind != want.Kind || got.ID != want.ID || got.Up != want.Up ||
		got.Inject != want.Inject || !bytes.Equal(name, wname) || got.Slot != want.Slot ||
		got.Status != want.Status || got.Aux != want.Aux || got.Lane != want.Lane ||
		!bytes.Equal(got.Data, want.Data) || (got.Data == nil) != (want.Data == nil) ||
		cap(name) != cap(wname) || cap(got.Data) != cap(want.Data) {
		t.Fatalf("decodes disagree:\n ref  %+v name %q (%d bytes)\n view %+v name %q (%d bytes)", want, wname, wn, got, name, gn)
	}
}

// encodeAgrees requires AppendFrame and the reference walk to emit the same
// bytes behind the same prefix, or to refuse f with the same error class.
func encodeAgrees(t testing.TB, prefix []byte, f Frame) {
	t.Helper()
	want, werr := refAppendFrame(append([]byte(nil), prefix...), f)
	got, gerr := AppendFrame(append([]byte(nil), prefix...), f)
	if frameErrClass(werr) != frameErrClass(gerr) {
		t.Fatalf("reference err = %v, AppendFrame err = %v for %+v", werr, gerr, f)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("encodes disagree for %+v:\n ref %x\n got %x", f, want, got)
	}
}
