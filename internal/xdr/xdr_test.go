package xdr

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func TestPrimitiveRoundTrips(t *testing.T) {
	e := &Encoder{}
	e.PutInt32(-42)
	e.PutUint32(0xDEADBEEF)
	e.PutInt64(-1 << 40)
	e.PutUint64(1 << 60)
	e.PutBool(true)
	e.PutBool(false)
	e.PutString("decaf")
	e.PutOpaque([]byte{1, 2, 3})
	e.PutFixedOpaque([]byte{9, 8})

	d := &Decoder{buf: e.buf}
	if v, _ := d.Int32(); v != -42 {
		t.Fatalf("Int32 = %d", v)
	}
	if v, _ := d.Uint32(); v != 0xDEADBEEF {
		t.Fatalf("Uint32 = %#x", v)
	}
	if v, _ := d.Int64(); v != -1<<40 {
		t.Fatalf("Int64 = %d", v)
	}
	if v, _ := d.Uint64(); v != 1<<60 {
		t.Fatalf("Uint64 = %d", v)
	}
	if v, _ := d.Bool(); !v {
		t.Fatal("Bool #1")
	}
	if v, _ := d.Bool(); v {
		t.Fatal("Bool #2")
	}
	if v, _ := d.String(); v != "decaf" {
		t.Fatalf("String = %q", v)
	}
	if v, _ := d.Opaque(); !bytes.Equal(v, []byte{1, 2, 3}) {
		t.Fatalf("Opaque = %v", v)
	}
	if v, _ := d.FixedOpaque(2); !bytes.Equal(v, []byte{9, 8}) {
		t.Fatalf("FixedOpaque = %v", v)
	}
	if d.Remaining() != 0 {
		t.Fatalf("Remaining = %d", d.Remaining())
	}
}

func TestAllItemsFourByteAligned(t *testing.T) {
	for _, s := range []string{"", "a", "ab", "abc", "abcd", "abcde"} {
		e := &Encoder{}
		e.PutString(s)
		if len(e.buf)%4 != 0 {
			t.Fatalf("string %q encodes to %d bytes, not 4-aligned", s, len(e.buf))
		}
	}
}

func TestShortBuffer(t *testing.T) {
	d := &Decoder{buf: []byte{0, 0}}
	if _, err := d.Uint32(); !errors.Is(err, ErrShortBuffer) {
		t.Fatalf("err = %v", err)
	}
	// Opaque with absurd length prefix must not allocate/overread.
	e := &Encoder{}
	e.PutUint32(1 << 30)
	d = &Decoder{buf: e.buf}
	if _, err := d.Opaque(); !errors.Is(err, ErrShortBuffer) {
		t.Fatalf("opaque overlength err = %v", err)
	}
}

func TestBadBoolEncoding(t *testing.T) {
	e := &Encoder{}
	e.PutUint32(7)
	d := &Decoder{buf: e.buf}
	if _, err := d.Bool(); err == nil {
		t.Fatal("Bool accepted encoding 7")
	}
}

// Property: string round-trip is identity and encoding length is
// 4 + ceil(len/4)*4.
func TestStringProperty(t *testing.T) {
	f := func(s string) bool {
		e := &Encoder{}
		e.PutString(s)
		want := 4 + (len(s)+3)/4*4
		if len(e.buf) != want {
			return false
		}
		got, err := (&Decoder{buf: e.buf}).String()
		return err == nil && got == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: integer round trips are identity.
func TestIntegerProperty(t *testing.T) {
	f := func(a int32, b uint32, c int64, d uint64) bool {
		e := &Encoder{}
		e.PutInt32(a)
		e.PutUint32(b)
		e.PutInt64(c)
		e.PutUint64(d)
		dec := &Decoder{buf: e.buf}
		ga, _ := dec.Int32()
		gb, _ := dec.Uint32()
		gc, _ := dec.Int64()
		gd, _ := dec.Uint64()
		return ga == a && gb == b && gc == c && gd == d
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// --- reflection codec ---

type txRing struct {
	Count uint32
	Head  uint32
	Tail  uint32
}

type adapter struct {
	Name        string
	MsgEnable   int32
	LinkUp      bool
	MAC         [6]byte
	Stats       []uint64
	TxRing      txRing
	RxRing      *txRing
	ConfigSpace [8]uint32

	unexported int //nolint:unused // must be skipped by the codec
}

func sampleAdapter() *adapter {
	return &adapter{
		Name:        "eth0",
		MsgEnable:   3,
		LinkUp:      true,
		MAC:         [6]byte{0, 0x1B, 0x21, 0xAA, 0xBB, 0xCC},
		Stats:       []uint64{10, 20, 30},
		TxRing:      txRing{Count: 256, Head: 5, Tail: 9},
		RxRing:      &txRing{Count: 128, Head: 1, Tail: 2},
		ConfigSpace: [8]uint32{0x8086, 1, 2, 3, 4, 5, 6, 7},
	}
}

func TestCodecStructRoundTrip(t *testing.T) {
	c := &Codec{}
	in := sampleAdapter()
	data, err := c.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out adapter
	outp := &out
	if err := c.Unmarshal(data, &outp); err != nil {
		t.Fatal(err)
	}
	if out.Name != "eth0" || out.MsgEnable != 3 || !out.LinkUp {
		t.Fatalf("scalar fields wrong: %+v", out)
	}
	if out.MAC != in.MAC {
		t.Fatalf("MAC = %v", out.MAC)
	}
	if len(out.Stats) != 3 || out.Stats[2] != 30 {
		t.Fatalf("Stats = %v", out.Stats)
	}
	if out.TxRing != in.TxRing {
		t.Fatalf("TxRing = %+v", out.TxRing)
	}
	if out.RxRing == nil || *out.RxRing != *in.RxRing {
		t.Fatalf("RxRing = %+v", out.RxRing)
	}
	if out.ConfigSpace != in.ConfigSpace {
		t.Fatalf("ConfigSpace = %v", out.ConfigSpace)
	}
}

func TestCodecNilPointer(t *testing.T) {
	c := &Codec{}
	in := sampleAdapter()
	in.RxRing = nil
	data, err := c.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	out := sampleAdapter() // starts non-nil; decode must nil it
	if err := c.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.RxRing != nil {
		t.Fatal("nil pointer did not decode to nil")
	}
}

type node struct {
	Value int32
	Next  *node
}

func TestCodecCycle(t *testing.T) {
	c := &Codec{}
	// Circular linked list, the paper's example of a recursive structure.
	a := &node{Value: 1}
	b := &node{Value: 2}
	a.Next = b
	b.Next = a
	data, err := c.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	var out *node
	if err := c.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.Value != 1 || out.Next.Value != 2 {
		t.Fatalf("values: %d -> %d", out.Value, out.Next.Value)
	}
	if out.Next.Next != out {
		t.Fatal("cycle not preserved: a.next.next != a")
	}
}

type pair struct {
	Left  *node
	Right *node
}

func TestCodecSharedObjectMarshalsOnce(t *testing.T) {
	c := &Codec{}
	shared := &node{Value: 7}
	p := &pair{Left: shared, Right: shared}
	data, err := c.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	var out *pair
	if err := c.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.Left != out.Right {
		t.Fatal("shared object decoded to two distinct objects")
	}
	// Marshaling the shared node twice would cost 2 x (marker+value);
	// the back-reference form must be strictly smaller.
	single, _ := c.Marshal(&pair{Left: shared, Right: &node{Value: 7}})
	if len(data) >= len(single) {
		t.Fatalf("shared encoding %d bytes, distinct encoding %d", len(data), len(single))
	}
}

func TestCodecFieldMaskEncodesSubset(t *testing.T) {
	full := &Codec{}
	masked := &Codec{Mask: FieldMask{
		"adapter": {"Name": true, "MsgEnable": true},
	}}
	in := sampleAdapter()
	fullBytes, err := full.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	maskBytes, err := masked.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(maskBytes) >= len(fullBytes) {
		t.Fatalf("masked %d bytes >= full %d bytes", len(maskBytes), len(fullBytes))
	}
}

func TestCodecFieldMaskPreservesUnlistedFields(t *testing.T) {
	masked := &Codec{Mask: FieldMask{
		"adapter": {"MsgEnable": true},
	}}
	src := sampleAdapter()
	src.MsgEnable = 99
	data, err := masked.Marshal(src)
	if err != nil {
		t.Fatal(err)
	}
	dst := sampleAdapter()
	dst.Name = "keep-me"
	if err := masked.Unmarshal(data, &dst); err != nil {
		t.Fatal(err)
	}
	if dst.MsgEnable != 99 {
		t.Fatalf("masked field not transferred: %d", dst.MsgEnable)
	}
	if dst.Name != "keep-me" {
		t.Fatalf("unlisted field overwritten: %q", dst.Name)
	}
}

func TestCodecUpdateExistingObject(t *testing.T) {
	c := &Codec{}
	src := sampleAdapter()
	src.RxRing.Head = 42
	data, err := c.Marshal(src)
	if err != nil {
		t.Fatal(err)
	}
	dst := sampleAdapter()
	existingRing := dst.RxRing
	if err := c.Unmarshal(data, &dst); err != nil {
		t.Fatal(err)
	}
	if dst.RxRing != existingRing {
		t.Fatal("decode allocated a new object instead of updating in place")
	}
	if dst.RxRing.Head != 42 {
		t.Fatalf("existing object not updated: Head = %d", dst.RxRing.Head)
	}
}

func TestCodecUnmarshalBadTarget(t *testing.T) {
	c := &Codec{}
	if err := c.Unmarshal(nil, 5); err == nil {
		t.Fatal("Unmarshal into non-pointer succeeded")
	}
	var p *adapter
	_ = p
	if err := c.Unmarshal(nil, (*adapter)(nil)); err == nil {
		t.Fatal("Unmarshal into nil pointer succeeded")
	}
}

func TestCodecUnsupportedKind(t *testing.T) {
	c := &Codec{}
	ch := make(chan int)
	if _, err := c.Marshal(&struct{ C chan int }{ch}); err == nil {
		t.Fatal("Marshal of chan succeeded")
	}
}

func TestCodecTruncatedInput(t *testing.T) {
	c := &Codec{}
	data, err := c.Marshal(sampleAdapter())
	if err != nil {
		t.Fatal(err)
	}
	var out *adapter
	if err := c.Unmarshal(data[:len(data)-6], &out); err == nil {
		t.Fatal("truncated decode succeeded")
	}
}

func TestCodecBadBackReference(t *testing.T) {
	c := &Codec{}
	e := &Encoder{}
	e.PutUint32(ptrRef)
	e.PutUint32(99)
	var out *node
	if err := c.Unmarshal(e.buf, &out); err == nil {
		t.Fatal("dangling back-reference decoded")
	}
}

// Property: marshal/unmarshal of a generated struct is identity on all
// masked-in fields.
func TestCodecRoundTripProperty(t *testing.T) {
	type sample struct {
		A int32
		B uint64
		C string
		D bool
		E []byte
	}
	c := &Codec{}
	f := func(a int32, b uint64, s string, d bool, e []byte) bool {
		in := &sample{A: a, B: b, C: s, D: d, E: e}
		data, err := c.Marshal(in)
		if err != nil {
			return false
		}
		var out sample
		op := &out
		if err := c.Unmarshal(data, &op); err != nil {
			return false
		}
		if len(e) == 0 && len(out.E) == 0 {
			out.E = e // nil vs empty slice equivalence
		}
		return out.A == a && out.B == b && out.C == s && out.D == d && bytes.Equal(out.E, e)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
