// Package hot exercises the hotpath analyzer: one function per allocating
// construct, one clean function showing every exemption.
package hot

import (
	"errors"
	"sync/atomic"
)

type slot struct{ seq uint64 }

type ring struct {
	slots []slot
	free  []int
	n     atomic.Uint64
}

func sink(v any) { _ = v }

// allocs trips every rule once.
//
//decaf:hotpath
func allocs(r *ring, m map[int]int, s string) int {
	buf := make([]byte, 8)                 // want "make allocates"
	p := new(slot)                         // want "new allocates"
	q := &slot{seq: 1}                     // want "composite literal escapes"
	r.free = append(r.free, 1)             // want "append may grow"
	f := func() int { return len(r.free) } // want "captures enclosing variables"
	sink(42)                               // want "interface boxing"
	t := s + "!"                           // want "string concatenation"
	total := 0
	for k := range m { // want "range over map"
		total += k
	}
	return len(buf) + int(p.seq+q.seq) + f() + len(t) + total
}

// clean allocates only where the rule permits: a terminating (cold) branch,
// an allowalloc-suppressed bounded append, a pointer-shaped interface
// store, and a byte boxed from the runtime's static table.
//
//decaf:hotpath
func clean(r *ring, idx int) error {
	if idx >= len(r.slots) {
		return errors.New("slot out of range")
	}
	r.slots[idx].seq = r.n.Add(1)
	//decaf:allowalloc free-list capacity fixed at construction
	r.free = append(r.free, idx)
	sink(&r.slots[idx])
	sink(byte(idx))
	return nil
}

// unannotated code may allocate freely.
func unannotated() []byte { return make([]byte, 64) }
