// Package registry is the decaf handler table: the process-global,
// re-exec-able registry that lets decaf call bodies execute in the worker
// process. A driver registers its decaf-side call bodies as named Handler
// values from init(), keyed by the same stable call names the XPC layer
// submits. Because the proc transport's worker is a re-exec of the current
// binary, the same init() functions run in the worker image, so the handler
// table is identical on both sides of the boundary by construction — no
// serialized code, no plugin loading, just deterministic init order.
//
// Handlers are package-level pure functions over a Ctx: they see the call's
// payload bytes, the driver's shared state cells (shm-backed under the proc
// transport, so a worker-side write is visible to the kernel side through
// its own mapping), and a Downcall hook that crosses back into the kernel
// for the nested downcalls decaf code makes (§3.1 of the paper). They never
// touch kernel-side packages: under process separation those are a
// different address space, and the in-process transports dispatch the same
// Fn so the cost model stays comparable across transports.
//
// The package is deliberately leaf-level (stdlib only): both internal/xpc
// (which dispatches handlers) and internal/decaf (which re-exports the API
// to driver authors) import it.
package registry

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Ctx is what a handler sees: the registered call name, the call's payload
// bytes (a marshaled copy or the worker's view of a payload-ring slot — do
// not retain past the call), the shared state cells, and the downcall hook
// back into the kernel.
type Ctx struct {
	// Name is the call name the handler was dispatched under.
	Name string
	// Data is the call's payload, when it carried one: the marshaled bytes
	// on the copy path, or the slot's bytes viewed through this process's
	// mapping on the ring path. Valid only for the duration of the call.
	Data []byte
	// State is the shared state area the handler reads and writes driver
	// state through. Under the proc transport it is the shm mapping both
	// processes share; under the in-process transports it is heap memory.
	State *State

	// down is the boundary crossing installed by the dispatcher: in the
	// worker it publishes a FrameDown on the executing call's lane and
	// waits for the result there; in-process it is a real Runtime.Downcall.
	down func(name string, arg uint64) (uint64, error)
}

// Downcall crosses back into the kernel: the named downcall runs
// kernel-side with arg and returns its scalar result. Only handlers
// registered with Down: true may call it — the declaration is what gets a
// body its downcall route.
func (c *Ctx) Downcall(name string, arg uint64) (uint64, error) {
	if c.down == nil {
		return 0, fmt.Errorf("registry: handler %q has no downcall route (register it with Down: true)", c.Name)
	}
	return c.down(name, arg)
}

// NewCtx builds a dispatch context. Dispatchers (internal/xpc, the proc
// worker) call it; handlers never do.
func NewCtx(name string, data []byte, st *State, down func(string, uint64) (uint64, error)) *Ctx {
	return &Ctx{Name: name, Data: data, State: st, down: down}
}

// Arm readies a dispatcher-owned context for one call of the registered
// handler h and returns it: every field is overwritten, so nothing of the
// previous call — name, payload, downcall route — is visible to this one.
// A serve loop that runs one body at a time keeps one Ctx and arms it per
// call instead of allocating; Name is the name h was registered under.
//
//decaf:hotpath
func (c *Ctx) Arm(h *Handler, data []byte, st *State, down func(string, uint64) (uint64, error)) *Ctx {
	c.Name, c.Data, c.State, c.down = h.name, data, st, down
	return c
}

// Handler is one registered decaf call body.
type Handler struct {
	// Cost is the body's virtual CPU cost, charged to the decaf timeline by
	// the kernel-side dispatcher (the worker has no virtual clock).
	Cost time.Duration
	// Down declares that Fn may call Ctx.Downcall. Under the proc transport
	// a Down call rides the same lane rings as any other; the declaration
	// makes it a publication barrier in its chunk (the calls behind it are
	// published once it completes, so its downcall results are the only
	// thing its lane can carry while it runs) and has the worker release its
	// submit slot before the body starts. The worker runs one body at a
	// time, so a downcall's kernel-side target must not wait on a lock held
	// across another in-flight crossing.
	Down bool
	// Fn is the call body. A panic inside Fn is a decaf fault: contained,
	// reported to the kernel side, and — under the proc transport — fatal
	// to the worker process.
	Fn func(*Ctx) error

	// name is the call name Register installed this copy under.
	name string
}

// table is the immutable snapshot Lookup reads lock-free.
var table atomic.Pointer[map[string]*Handler]

var regMu sync.Mutex

// Register installs (or replaces) the handler for a call name. Call it from
// init() so the table is identical in every exec of the binary, parent and
// worker alike.
func Register(name string, h Handler) {
	if name == "" || h.Fn == nil {
		panic("registry: Register needs a name and a body")
	}
	regMu.Lock()
	defer regMu.Unlock()
	old := table.Load()
	next := make(map[string]*Handler, 1+lenOf(old))
	if old != nil {
		for k, v := range *old {
			next[k] = v
		}
	}
	hc := h
	hc.name = name
	next[name] = &hc
	table.Store(&next)
}

func lenOf(m *map[string]*Handler) int {
	if m == nil {
		return 0
	}
	return len(*m)
}

// Lookup returns the handler registered for name, or nil. Lock-free and
// allocation-free: safe on the submit hot path.
//
//decaf:hotpath
func Lookup(name string) *Handler {
	m := table.Load()
	if m == nil {
		return nil
	}
	return (*m)[name]
}

// LookupBytes is Lookup for a name held as bytes — a view of a wire frame —
// without materialising a string for it.
//
//decaf:hotpath
func LookupBytes(name []byte) *Handler {
	m := table.Load()
	if m == nil {
		return nil
	}
	return (*m)[string(name)]
}

// Names lists the registered handler names, sorted (for docs and tests).
func Names() []string {
	m := table.Load()
	if m == nil {
		return nil
	}
	out := make([]string, 0, len(*m))
	for k := range *m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
