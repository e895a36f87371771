package xdr

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Robustness: unmarshaling attacker-controlled or corrupted bytes into any
// of the driver-structure shapes must fail cleanly (error), never panic or
// over-allocate — the decoder runs in the driver library with kernel data
// on the other side.

type robustRing struct {
	Count uint32
	Head  uint32
}

type robustAdapter struct {
	Name  string
	MAC   [6]byte
	Stats []uint64
	Ring  *robustRing
	Peers []*robustRing
	Meta  map[string]int // unsupported kind: must error, not panic
}

type robustSane struct {
	Name  string
	MAC   [6]byte
	Stats []uint64
	Ring  *robustRing
	Peers []*robustRing
}

func TestUnmarshalRandomBytesNeverPanics(t *testing.T) {
	c := &Codec{}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 2000; i++ {
		buf := make([]byte, rng.Intn(256))
		rng.Read(buf)
		var out robustSane
		op := &out
		// Must not panic; error or success are both acceptable.
		_ = c.Unmarshal(buf, &op)
	}
}

func TestUnmarshalTruncationsNeverPanic(t *testing.T) {
	c := &Codec{}
	in := &robustSane{
		Name:  "eth0",
		MAC:   [6]byte{1, 2, 3, 4, 5, 6},
		Stats: []uint64{1, 2, 3},
		Ring:  &robustRing{Count: 256},
		Peers: []*robustRing{{Count: 1}, nil, {Count: 2}},
	}
	data, err := c.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(data); cut++ {
		var out robustSane
		op := &out
		if err := c.Unmarshal(data[:cut], &op); err == nil && cut < len(data)-4 {
			// Short prefixes may occasionally decode if they happen to
			// form a complete value; that is fine. The requirement is no
			// panic, which reaching this line demonstrates.
			_ = err
		}
	}
}

func TestUnmarshalBitFlipsNeverPanic(t *testing.T) {
	c := &Codec{}
	in := &robustSane{Name: "x", Stats: []uint64{9}, Ring: &robustRing{}}
	data, err := c.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(data); i++ {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), data...)
			mut[i] ^= 1 << bit
			var out robustSane
			op := &out
			_ = c.Unmarshal(mut, &op)
		}
	}
}

func TestMarshalUnsupportedFieldFailsCleanly(t *testing.T) {
	c := &Codec{}
	in := &robustAdapter{Meta: map[string]int{"x": 1}}
	if _, err := c.Marshal(in); err == nil {
		t.Fatal("map field marshaled")
	}
}

// Property: a hostile length prefix cannot make the decoder allocate more
// than the input it was handed (no billion-laughs).
func TestHostileLengthBounded(t *testing.T) {
	c := &Codec{}
	f := func(claim uint32) bool {
		e := &Encoder{}
		e.PutUint32(claim | 1<<20) // huge claimed slice length
		var out robustSane
		op := &out
		err := c.Unmarshal(e.buf, &op)
		// Either it errors, or it decoded something tiny; the Stats slice
		// can never exceed the input length in elements.
		return err != nil || len(out.Stats) <= len(e.buf)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: marshal -> unmarshal -> marshal is a fixed point (canonical
// encoding).
func TestCanonicalEncodingProperty(t *testing.T) {
	c := &Codec{}
	f := func(name string, count, head uint32, stats []uint64) bool {
		in := &robustSane{Name: name, Stats: stats, Ring: &robustRing{Count: count, Head: head}}
		d1, err := c.Marshal(in)
		if err != nil {
			return false
		}
		var mid robustSane
		mp := &mid
		if err := c.Unmarshal(d1, &mp); err != nil {
			return false
		}
		d2, err := c.Marshal(&mid)
		if err != nil {
			return false
		}
		if len(d1) != len(d2) {
			return false
		}
		for i := range d1 {
			if d1[i] != d2[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
