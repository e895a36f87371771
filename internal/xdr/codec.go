package xdr

import (
	"fmt"
	"reflect"
	"sync"
)

// FieldMask selects, per structure type name, which exported fields are
// marshaled. A nil entry (or absent type) marshals every field. This is the
// wire-level realization of DriverSlicer's customized marshaling: structures
// "defined for the kernel's internal use but shared with drivers are passed
// with only the driver-accessed fields" (paper §2.3). Fields omitted by the
// mask retain their previous values at the decode side.
type FieldMask map[string]map[string]bool

// Allows reports whether the mask admits field f of struct type t.
func (m FieldMask) Allows(t, f string) bool {
	if m == nil {
		return true
	}
	fields, ok := m[t]
	if !ok || fields == nil {
		return true
	}
	return fields[f]
}

// Codec marshals Go values to XDR and back using reflection, with
// object-identity tracking for pointers (cycles marshal once and
// back-reference thereafter) and optional field masks.
//
// Supported field types: bool, integer kinds (8/16/32-bit encode as XDR
// int/unsigned, 64-bit as hyper), string, byte slices/arrays (opaque),
// other slices (variable array), arrays (fixed array), structs, and
// pointers to structs (optional + reference tracking).
type Codec struct {
	// Mask restricts which struct fields are transferred; nil transfers all.
	Mask FieldMask
}

// Pointer markers on the wire.
const (
	ptrNil = 0
	ptrVal = 1
	ptrRef = 2
)

type encState struct {
	enc  Encoder
	seen map[uintptr]uint32 // pointer -> object index
	next uint32
	c    *Codec
}

// encStatePool recycles encoder state (identity map and scratch) between
// marshals, so steady-state marshaling allocates nothing beyond the output
// buffer — and not even that when the caller reuses one via MarshalAppend.
var encStatePool = sync.Pool{
	New: func() any { return &encState{seen: make(map[uintptr]uint32)} },
}

func (st *encState) release() {
	clear(st.seen)
	st.next = 0
	st.c = nil
	st.enc.buf = nil
	encStatePool.Put(st)
}

// Marshal encodes v (any supported value, typically a pointer to a driver
// structure) and returns the XDR bytes in a fresh buffer.
func (c *Codec) Marshal(v any) ([]byte, error) {
	return c.MarshalAppend(nil, v)
}

// MarshalAppend encodes v, appending the XDR bytes to dst and returning the
// extended buffer. Passing a recycled dst (length 0, retained capacity)
// makes steady-state marshaling allocation-free.
func (c *Codec) MarshalAppend(dst []byte, v any) ([]byte, error) {
	st := encStatePool.Get().(*encState)
	st.c = c
	st.enc.buf = dst
	err := st.value(reflect.ValueOf(v))
	out := st.enc.buf
	st.release()
	if err != nil {
		return nil, err
	}
	return out, nil
}

func (s *encState) value(v reflect.Value) error {
	switch v.Kind() {
	case reflect.Bool:
		s.enc.PutBool(v.Bool())
	case reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int:
		s.enc.PutInt32(int32(v.Int()))
	case reflect.Int64:
		s.enc.PutInt64(v.Int())
	case reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint:
		s.enc.PutUint32(uint32(v.Uint()))
	case reflect.Uint64, reflect.Uintptr:
		s.enc.PutUint64(v.Uint())
	case reflect.String:
		s.enc.PutString(v.String())
	case reflect.Slice:
		if v.Type().Elem().Kind() == reflect.Uint8 {
			s.enc.PutOpaque(v.Bytes())
			return nil
		}
		s.enc.PutUint32(uint32(v.Len()))
		for i := 0; i < v.Len(); i++ {
			if err := s.value(v.Index(i)); err != nil {
				return err
			}
		}
	case reflect.Array:
		if v.Type().Elem().Kind() == reflect.Uint8 {
			b := make([]byte, v.Len())
			reflect.Copy(reflect.ValueOf(b), v)
			s.enc.PutFixedOpaque(b)
			return nil
		}
		for i := 0; i < v.Len(); i++ {
			if err := s.value(v.Index(i)); err != nil {
				return err
			}
		}
	case reflect.Struct:
		return s.structValue(v)
	case reflect.Ptr:
		return s.pointer(v)
	default:
		return fmt.Errorf("xdr: unsupported kind %v", v.Kind())
	}
	return nil
}

func (s *encState) structValue(v reflect.Value) error {
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() {
			continue
		}
		if !s.c.Mask.Allows(t.Name(), f.Name) {
			continue
		}
		if err := s.value(v.Field(i)); err != nil {
			return fmt.Errorf("%s.%s: %w", t.Name(), f.Name, err)
		}
	}
	return nil
}

func (s *encState) pointer(v reflect.Value) error {
	if v.IsNil() {
		s.enc.PutUint32(ptrNil)
		return nil
	}
	addr := v.Pointer()
	if idx, ok := s.seen[addr]; ok {
		s.enc.PutUint32(ptrRef)
		s.enc.PutUint32(idx)
		return nil
	}
	s.seen[addr] = s.next
	s.next++
	s.enc.PutUint32(ptrVal)
	return s.value(v.Elem())
}

type decState struct {
	dec  Decoder
	objs []reflect.Value // object index -> decoded pointer
	c    *Codec
}

// decStatePool recycles decoder state between unmarshals.
var decStatePool = sync.Pool{
	New: func() any { return &decState{} },
}

// Unmarshal decodes XDR bytes into target, which must be a non-nil pointer.
// Struct fields excluded by the codec's mask are left untouched, which is
// how the object tracker's "update the existing object" semantics preserve
// unmarshaled state. Nothing decoded retains data; callers may reuse the
// buffer afterwards.
func (c *Codec) Unmarshal(data []byte, target any) error {
	v := reflect.ValueOf(target)
	if v.Kind() != reflect.Ptr || v.IsNil() {
		return fmt.Errorf("xdr: Unmarshal target must be a non-nil pointer, got %T", target)
	}
	st := decStatePool.Get().(*decState)
	st.c = c
	st.dec = Decoder{buf: data}
	err := st.value(v.Elem())
	for i := range st.objs {
		st.objs[i] = reflect.Value{}
	}
	st.objs = st.objs[:0]
	st.c = nil
	st.dec = Decoder{}
	decStatePool.Put(st)
	return err
}

func (s *decState) value(v reflect.Value) error {
	switch v.Kind() {
	case reflect.Bool:
		b, err := s.dec.Bool()
		if err != nil {
			return err
		}
		v.SetBool(b)
	case reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int:
		n, err := s.dec.Int32()
		if err != nil {
			return err
		}
		v.SetInt(int64(n))
	case reflect.Int64:
		n, err := s.dec.Int64()
		if err != nil {
			return err
		}
		v.SetInt(n)
	case reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint:
		n, err := s.dec.Uint32()
		if err != nil {
			return err
		}
		v.SetUint(uint64(n))
	case reflect.Uint64, reflect.Uintptr:
		n, err := s.dec.Uint64()
		if err != nil {
			return err
		}
		v.SetUint(n)
	case reflect.String:
		str, err := s.dec.String()
		if err != nil {
			return err
		}
		v.SetString(str)
	case reflect.Slice:
		if v.Type().Elem().Kind() == reflect.Uint8 {
			b, err := s.dec.Opaque()
			if err != nil {
				return err
			}
			v.SetBytes(b)
			return nil
		}
		n, err := s.dec.Uint32()
		if err != nil {
			return err
		}
		if int(n) > s.dec.Remaining() {
			return fmt.Errorf("%w: array length %d exceeds remaining %d", ErrShortBuffer, n, s.dec.Remaining())
		}
		sl := reflect.MakeSlice(v.Type(), int(n), int(n))
		for i := 0; i < int(n); i++ {
			if err := s.value(sl.Index(i)); err != nil {
				return err
			}
		}
		v.Set(sl)
	case reflect.Array:
		if v.Type().Elem().Kind() == reflect.Uint8 {
			b, err := s.dec.FixedOpaque(v.Len())
			if err != nil {
				return err
			}
			reflect.Copy(v, reflect.ValueOf(b))
			return nil
		}
		for i := 0; i < v.Len(); i++ {
			if err := s.value(v.Index(i)); err != nil {
				return err
			}
		}
	case reflect.Struct:
		return s.structValue(v)
	case reflect.Ptr:
		return s.pointer(v)
	default:
		return fmt.Errorf("xdr: unsupported kind %v", v.Kind())
	}
	return nil
}

func (s *decState) structValue(v reflect.Value) error {
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() {
			continue
		}
		if !s.c.Mask.Allows(t.Name(), f.Name) {
			continue
		}
		if err := s.value(v.Field(i)); err != nil {
			return fmt.Errorf("%s.%s: %w", t.Name(), f.Name, err)
		}
	}
	return nil
}

func (s *decState) pointer(v reflect.Value) error {
	marker, err := s.dec.Uint32()
	if err != nil {
		return err
	}
	switch marker {
	case ptrNil:
		v.Set(reflect.Zero(v.Type()))
		return nil
	case ptrRef:
		idx, err := s.dec.Uint32()
		if err != nil {
			return err
		}
		if int(idx) >= len(s.objs) {
			return fmt.Errorf("xdr: back-reference %d out of range (have %d objects)", idx, len(s.objs))
		}
		ref := s.objs[idx]
		if !ref.Type().AssignableTo(v.Type()) {
			return fmt.Errorf("xdr: back-reference type %v not assignable to %v", ref.Type(), v.Type())
		}
		v.Set(ref)
		return nil
	case ptrVal:
		// Reuse the existing object if the target already points somewhere
		// (object-tracker update semantics); otherwise allocate.
		if v.IsNil() {
			v.Set(reflect.New(v.Type().Elem()))
		}
		s.objs = append(s.objs, v)
		// Register before descending so cycles resolve. Note the registered
		// value is the pointer itself (stable across the descent).
		s.objs[len(s.objs)-1] = reflect.ValueOf(v.Interface())
		return s.value(v.Elem())
	default:
		return fmt.Errorf("xdr: pointer marker %d", marker)
	}
}
