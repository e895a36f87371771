// Package objtrack implements the Decaf object tracker (paper §2.3, §3.1.2):
// the service that "logically stores mappings between C pointers in the
// driver library, and Java objects in the decaf driver", extended from the
// Nooks tracker to support two user-level domains.
//
// Two representation mismatches from the paper are reproduced faithfully:
//
//   - User-level (Java) objects have no addresses, so the user-side tracker
//     keys on object identity (here: Go pointer identity) rather than on an
//     integer address.
//   - A single C pointer may correspond to several user objects, because a C
//     structure and its first embedded member share an address. The tracker
//     therefore stores a *type identifier* with each C pointer — the paper
//     uses the address of the structure's XDR marshaling function; we use
//     the structure's type name, which is equally unique per type.
package objtrack

import (
	"fmt"
	"sync"
)

// CPtr is a simulated C pointer: the address of an object in the kernel or
// driver-library domain, cast to an integer as the paper describes. CPtr 0
// is NULL.
type CPtr uint64

// TypeID identifies the structure type an association is for, standing in
// for "the address of the C XDR marshaling function for a structure"
// (paper §3.1.2).
type TypeID string

// AddressSpace mints stable CPtr addresses for objects living in a C-side
// domain (driver nucleus or driver library). It stands in for the domain's
// heap: every registered object gets a unique, never-reused address.
type AddressSpace struct {
	mu      sync.Mutex
	next    CPtr
	byAddr  map[CPtr]any
	byIdent map[any]CPtr
}

// NewAddressSpace creates an address space. Addresses start high and are
// stepped by a cache-line-ish stride so they look like real heap pointers in
// diagnostics.
func NewAddressSpace() *AddressSpace {
	return &AddressSpace{
		next:    0xFFFF888000000000,
		byAddr:  make(map[CPtr]any),
		byIdent: make(map[any]CPtr),
	}
}

// Register assigns an address to obj (a pointer) and returns it. Registering
// the same object twice returns the same address.
func (a *AddressSpace) Register(obj any) CPtr {
	if obj == nil {
		panic("objtrack: Register(nil)")
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if p, ok := a.byIdent[obj]; ok {
		return p
	}
	p := a.next
	a.next += 0x40
	a.byAddr[p] = obj
	a.byIdent[obj] = p
	return p
}

type assocKey struct {
	ptr CPtr
	typ TypeID
}

// Tracker maps (CPtr, TypeID) associations to user-level objects and back.
// One Tracker instance serves one user-level domain; Decaf runs one for the
// driver library and one (the "JavaOT") inside the decaf driver.
type Tracker struct {
	mu     sync.Mutex
	name   string
	toUser map[assocKey]any
	toC    map[any]assocKey
}

// NewTracker creates an empty tracker for the named domain.
func NewTracker(name string) *Tracker {
	return &Tracker{
		name:   name,
		toUser: make(map[assocKey]any),
		toC:    make(map[any]assocKey),
	}
}

// Associate records that the user object obj is the domain's version of the
// C object at ptr with the given type. Re-associating the same key replaces
// the mapping (the object was reallocated).
func (t *Tracker) Associate(ptr CPtr, typ TypeID, obj any) error {
	if ptr == 0 {
		return fmt.Errorf("objtrack: %s: associate with NULL pointer", t.name)
	}
	if obj == nil {
		return fmt.Errorf("objtrack: %s: associate %#x/%s with nil object", t.name, uint64(ptr), typ)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	key := assocKey{ptr, typ}
	if old, ok := t.toUser[key]; ok {
		delete(t.toC, old)
	}
	t.toUser[key] = obj
	t.toC[obj] = key
	return nil
}

// LookupUser finds the user object for (ptr, typ). Unmarshaling code calls
// this before allocating: "If found, the code updates the existing object
// with its new contents. If not found, the unmarshaling code allocates a new
// object and adds an association."
func (t *Tracker) LookupUser(ptr CPtr, typ TypeID) (any, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	obj, ok := t.toUser[assocKey{ptr, typ}]
	return obj, ok
}

// LookupC translates a user object back to its C pointer and type, the
// xlate_j_to_c step in the paper's Figure 2 stub.
func (t *Tracker) LookupC(obj any) (CPtr, TypeID, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	key, ok := t.toC[obj]
	return key.ptr, key.typ, ok
}

// Release removes the association for (ptr, typ) so the user object becomes
// collectable. It reports whether an association existed.
func (t *Tracker) Release(ptr CPtr, typ TypeID) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	key := assocKey{ptr, typ}
	obj, ok := t.toUser[key]
	if !ok {
		return false
	}
	delete(t.toUser, key)
	delete(t.toC, obj)
	return true
}

// Count reports the number of live associations.
func (t *Tracker) Count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.toUser)
}
