package trace

import (
	"fmt"
	"unsafe"
)

// NewRing allocates a heap-backed ring for the tests. The
// backing array is built from uint64s so the header cast is aligned.
func NewRing(entries int) (*Ring, error) {
	if entries < 2 || entries&(entries-1) != 0 {
		return nil, fmt.Errorf("trace: ring entries %d not a power of two >= 2", entries)
	}
	words := make([]uint64, RingBytes(entries)/8)
	region := unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), len(words)*8)
	return MapRing(region, entries)
}
