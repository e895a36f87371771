package registry

import (
	"fmt"
	"sync/atomic"
	"unsafe"
)

// A Cell is an index into the shared state area: one 64-bit word of driver
// state that worker-side handlers and the kernel side both read and write
// atomically. Cells are allocated by RegisterCell at init() time; because
// the worker is a re-exec of the same binary, init order — and therefore
// every cell's index — is identical in both processes, so a Cell value is
// meaningful on either side of the boundary without any negotiation.
type Cell int

var cells names

// RegisterCell allocates (or returns the existing) state cell for name.
// Call it from package-level var initializers or init() so the allocation
// order is deterministic across re-execs. Names are namespaced by
// convention ("e1000.watchdog_runs").
func RegisterCell(name string) Cell { return Cell(cells.index(name)) }

// CellCount reports how many cells have been registered.
func CellCount() int { return len(cells.all()) }

// CellName returns the name a cell was registered under ("" if out of
// range), for metrics and debugging.
func CellName(c Cell) string {
	if all := cells.all(); c >= 0 && int(c) < len(all) {
		return all[c]
	}
	return ""
}

// StateBytes is the byte size of a state area holding every registered
// cell. The registry is process-global, so one area covers all drivers in
// the binary; each Runtime still gets its own instance, so two driver
// instances never share cells.
func StateBytes() int {
	return CellCount() * 8
}

// State is one instance of the shared state area: CellCount() 64-bit words
// over a caller-provided backing. Under the proc transport the backing is
// the shm mapping both processes share; otherwise it is heap memory. All
// access is via sync/atomic, so concurrent access from both sides of the
// boundary is sound (the cells are independent; cross-cell ordering is not
// promised).
type State struct {
	words []uint64
}

// NewState allocates a heap-backed state area sized for every registered
// cell.
func NewState() *State {
	return &State{words: make([]uint64, CellCount())}
}

// BindState overlays a state area onto mem (an shm mapping). mem must be
// 8-byte aligned and at least StateBytes() long; extra bytes are ignored.
func BindState(mem []byte) (*State, error) {
	need := StateBytes()
	if need == 0 {
		return &State{}, nil
	}
	if len(mem) < need {
		return nil, fmt.Errorf("registry: state area %d bytes, need %d", len(mem), need)
	}
	if uintptr(unsafe.Pointer(&mem[0]))%8 != 0 {
		return nil, fmt.Errorf("registry: state area not 8-byte aligned")
	}
	words := unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), need/8)
	return &State{words: words}, nil
}

// Load atomically reads a cell. Out-of-range cells (registered after this
// instance was created) read 0.
//
//decaf:hotpath
func (s *State) Load(c Cell) uint64 {
	if s == nil || c < 0 || int(c) >= len(s.words) {
		return 0
	}
	return atomic.LoadUint64(&s.words[c])
}

// Store atomically writes a cell. Out-of-range stores are dropped.
//
//decaf:hotpath
func (s *State) Store(c Cell, v uint64) {
	if s == nil || c < 0 || int(c) >= len(s.words) {
		return
	}
	atomic.StoreUint64(&s.words[c], v)
}

// Add atomically adds d to a cell and returns the new value.
//
//decaf:hotpath
func (s *State) Add(c Cell, d uint64) uint64 {
	if s == nil || c < 0 || int(c) >= len(s.words) {
		return 0
	}
	return atomic.AddUint64(&s.words[c], d)
}

// SameBacking reports whether two state instances share the same backing
// words — used to make shm rebinding idempotent across worker respawns.
func SameBacking(a, b *State) bool {
	if a == nil || b == nil || len(a.words) == 0 || len(b.words) == 0 {
		return false
	}
	return &a.words[0] == &b.words[0]
}

// CopyTo copies every cell this instance holds into dst — used when a
// heap-backed area is promoted to an shm backing, so writes made before the
// transport bound are not lost.
func (s *State) CopyTo(dst *State) {
	if s == nil || dst == nil {
		return
	}
	n := len(s.words)
	if len(dst.words) < n {
		n = len(dst.words)
	}
	for i := 0; i < n; i++ {
		atomic.StoreUint64(&dst.words[i], atomic.LoadUint64(&s.words[i]))
	}
}
