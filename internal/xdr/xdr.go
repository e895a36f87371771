// Package xdr implements the External Data Representation standard
// (RFC 4506) subset that Decaf Drivers uses to marshal driver data
// structures between the driver nucleus, the driver library, and the decaf
// driver (paper §3.2.3), plus the two extensions the paper makes to the
// stock rpcgen/jrpcgen compilers:
//
//   - object-identity tracking: a structure reachable through several
//     pointers (including cycles) is marshaled once, with back-references
//     thereafter, "so that passing two structures that both reference a
//     third results in marshaling the third structure just once";
//   - field-level masks, the mechanism behind "customized marshaling of
//     data structures to copy only those fields actually accessed at the
//     target" (§2.3).
//
// Encoding rules follow RFC 4506: all items are multiples of four bytes,
// big-endian; integers up to 32 bits encode as four bytes, hyper as eight;
// variable-length opaque/string/array data carries a length prefix and is
// zero-padded to four bytes.
package xdr

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrShortBuffer is returned when a decoder runs out of input.
var ErrShortBuffer = errors.New("xdr: short buffer")

// Encoder appends XDR-encoded items to a buffer.
type Encoder struct {
	buf []byte
}

// PutUint32 encodes an XDR unsigned int.
func (e *Encoder) PutUint32(v uint32) {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], v)
	e.buf = append(e.buf, b[:]...)
}

// PutInt32 encodes an XDR int.
func (e *Encoder) PutInt32(v int32) { e.PutUint32(uint32(v)) }

// PutUint64 encodes an XDR unsigned hyper.
func (e *Encoder) PutUint64(v uint64) {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	e.buf = append(e.buf, b[:]...)
}

// PutInt64 encodes an XDR hyper.
func (e *Encoder) PutInt64(v int64) { e.PutUint64(uint64(v)) }

// PutBool encodes an XDR bool (int 0 or 1).
func (e *Encoder) PutBool(v bool) {
	if v {
		e.PutUint32(1)
	} else {
		e.PutUint32(0)
	}
}

func pad(n int) int { return (4 - n%4) % 4 }

// PutFixedOpaque encodes fixed-length opaque data (no length prefix),
// zero-padded to a multiple of four bytes.
func (e *Encoder) PutFixedOpaque(b []byte) {
	e.buf = append(e.buf, b...)
	for i := 0; i < pad(len(b)); i++ {
		e.buf = append(e.buf, 0)
	}
}

// PutOpaque encodes variable-length opaque data with its length prefix.
func (e *Encoder) PutOpaque(b []byte) {
	e.PutUint32(uint32(len(b)))
	e.PutFixedOpaque(b)
}

// PutString encodes an XDR string.
func (e *Encoder) PutString(s string) { e.PutOpaque([]byte(s)) }

// Decoder consumes XDR-encoded items from a buffer.
type Decoder struct {
	buf []byte
	off int
}

// Remaining reports undecoded bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

func (d *Decoder) take(n int) ([]byte, error) {
	if d.off+n > len(d.buf) {
		return nil, fmt.Errorf("%w: need %d bytes at offset %d of %d", ErrShortBuffer, n, d.off, len(d.buf))
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b, nil
}

// Uint32 decodes an XDR unsigned int.
func (d *Decoder) Uint32() (uint32, error) {
	b, err := d.take(4)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint32(b), nil
}

// Int32 decodes an XDR int.
func (d *Decoder) Int32() (int32, error) {
	v, err := d.Uint32()
	return int32(v), err
}

// Uint64 decodes an XDR unsigned hyper.
func (d *Decoder) Uint64() (uint64, error) {
	b, err := d.take(8)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint64(b), nil
}

// Int64 decodes an XDR hyper.
func (d *Decoder) Int64() (int64, error) {
	v, err := d.Uint64()
	return int64(v), err
}

// Bool decodes an XDR bool, rejecting values other than 0 and 1.
func (d *Decoder) Bool() (bool, error) {
	v, err := d.Uint32()
	if err != nil {
		return false, err
	}
	switch v {
	case 0:
		return false, nil
	case 1:
		return true, nil
	default:
		return false, fmt.Errorf("xdr: bool encoding %d", v)
	}
}

// FixedOpaque decodes n bytes of fixed-length opaque data (plus padding).
func (d *Decoder) FixedOpaque(n int) ([]byte, error) {
	b, err := d.take(n)
	if err != nil {
		return nil, err
	}
	if _, err := d.take(pad(n)); err != nil {
		return nil, err
	}
	out := make([]byte, n)
	copy(out, b)
	return out, nil
}

// Opaque decodes variable-length opaque data.
func (d *Decoder) Opaque() ([]byte, error) {
	n, err := d.Uint32()
	if err != nil {
		return nil, err
	}
	if int(n) > d.Remaining() {
		return nil, fmt.Errorf("%w: opaque length %d exceeds remaining %d", ErrShortBuffer, n, d.Remaining())
	}
	return d.FixedOpaque(int(n))
}

// String decodes an XDR string.
func (d *Decoder) String() (string, error) {
	b, err := d.Opaque()
	return string(b), err
}
