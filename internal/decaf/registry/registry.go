// Package registry is the decaf handler table: the process-global,
// re-exec-able registry that lets decaf call bodies execute in the worker
// process. A driver registers its call bodies from init(), each at the next
// index of a dense table, and crosses with the *Handler Register returns;
// DeclareDowncall numbers the downcalls those bodies make the same way. The
// proc transport's worker is a re-exec of the current binary, so the same
// init() functions number both tables alike in both images — no serialized
// code, no plugin loading — and Digest, checked once per epoch, proves it.
// A call crosses as its handler's index (ByID), a downcall as its Downcall.
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
// # Writing a decaf call body
//
// A body is a package-level function registered from init(). It must not
// close over the driver instance: under the proc transport it executes in
// the worker, a re-exec of the same binary, where the init()-built tables
// and cell indices match but a *Driver pointer would not. Everything the
// body needs arrives through its Ctx: Data (the payload bytes), State (the
// shared state cells) and Downcall (a real crossing back into the kernel,
// for bodies registered with Down: true). A driver crosses by handle, never
// by name, so a misspelt crossing does not compile. A worked example,
// following the e1000 conversion (its watchdog reads link status from the
// device and tells the kernel when the carrier changes):
//
//	var (
//		cellRuns   = registry.RegisterCell("e1000.watchdog_runs")
//		cellLinkUp = registry.RegisterCell("e1000.link_up")
//
//		downReadStatus    = registry.DeclareDowncall("e1000_read_status")
//		downCarrierChange = registry.DeclareDowncall("netif_carrier_change")
//	)
//
//	var hWatchdog *registry.Handler
//
//	func init() {
//		hWatchdog = registry.Register("e1000_watchdog", registry.Handler{
//			Cost: 500 * time.Nanosecond, // virtual CPU charged kernel-side
//			Down: true,                  // body makes nested downcalls
//			Fn: func(c *registry.Ctx) error {
//				c.State.Add(cellRuns, 1)
//				status, err := c.Downcall(downReadStatus, 0)
//				if err != nil {
//					return err
//				}
//				up := uint64(0)
//				if uint32(status)&e1000hw.StatusLU != 0 {
//					up = 1
//				}
//				if c.State.Load(cellLinkUp) != up {
//					c.State.Store(cellLinkUp, up)
//					_, err = c.Downcall(downCarrierChange, up)
//				}
//				return err
//			},
//		})
//	}
//
// The downcall targets are bound per driver instance on its xpc.Runtime,
// not in this process-global table, because they run kernel-side and may
// touch the device and kernel state freely:
//
//	func (d *Driver) registerDowncalls() { // called from New()
//		d.rt.BindDowncall(downReadStatus, func(kctx *kernel.Context, _ uint64) (uint64, error) {
//			return uint64(d.dev.PCI.MMIORead(0, e1000hw.RegSTATUS, 4)), nil
//		})
//		d.rt.BindDowncall(downCarrierChange, func(kctx *kernel.Context, up uint64) (uint64, error) {
//			d.Adapter.LinkUp = up != 0 // kernel-side mirror of the cell
//			// ... netif_carrier_on/off ...
//			return 0, nil
//		})
//	}
//
// The kernel side invokes the body by its handle — rt.Call(ctx, hWatchdog)
// for control-path calls, b.CallPayload(hXmitFrame, payload) for batched
// data-path calls — and reads results back through the same cells:
// d.rt.SharedState().Load(cellRuns). Every transport dispatches the same
// Fn; only where it executes differs.
//
// The package is deliberately leaf-level (stdlib only): internal/xpc, which
// dispatches handlers, and every driver, which registers them, import it
// directly.
package registry

import (
	"fmt"
	"maps"
	"slices"
	"strconv"
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

	// down is the dispatcher's downcall route: in the worker a FrameDown on
	// the executing call's lane; in-process the runtime's own route.
	down DownFunc
}

// DownFunc is a dispatcher's downcall route: it runs the declared downcall
// d kernel-side with arg and returns its scalar result.
type DownFunc func(d Downcall, arg uint64) (uint64, error)

// Downcall crosses back into the kernel: the declared downcall d runs
// kernel-side with arg and returns its scalar result. Only handlers
// registered with Down: true may call it — the declaration is what gets a
// body its downcall route.
func (c *Ctx) Downcall(d Downcall, arg uint64) (uint64, error) {
	if c.down == nil {
		return 0, fmt.Errorf("registry: handler %q has no downcall route (register it with Down: true)", c.Name)
	}
	return c.down(d, arg)
}

// NewCtx builds a standalone dispatch context whose downcalls reach down by
// name. Only benchmark/ still calls it; dispatchers arm their own Ctx.
func NewCtx(name string, data []byte, st *State, down func(string, uint64) (uint64, error)) *Ctx {
	return &Ctx{Name: name, Data: data, State: st, down: func(d Downcall, arg uint64) (uint64, error) { return down(d.Name(), arg) }}
}

// Arm readies a dispatcher-owned context for one call of the registered
// handler h and returns it: every field is overwritten, so nothing of the
// previous call — name, payload, downcall route — is visible to this one.
// A serve loop that runs one body at a time keeps one Ctx and arms it per
// call instead of allocating; Name is the name h was registered under.
//
//decaf:hotpath
func (c *Ctx) Arm(h *Handler, data []byte, st *State, down DownFunc) *Ctx {
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

	// name and id are the call name and index Register gave this copy.
	name string
	id   uint32
}

// MaxHandlers and MaxDowncalls bound the two tables, so a per-entry count
// is a fixed array slot reached by index. Both are powers of two.
const (
	MaxHandlers  = 256
	MaxDowncalls = 64
)

// handlerTable is the immutable snapshot Lookup and ByID read lock-free:
// every handler at its index, and the same handlers by name.
type handlerTable struct {
	byID   []*Handler
	byName map[string]*Handler
}

var (
	table atomic.Pointer[handlerTable]
	regMu sync.Mutex
)

func init() { table.Store(&handlerTable{byName: map[string]*Handler{}}) }

// Register installs (or replaces) the handler for a call name and returns
// it: the handle the driver crosses with. Call it from init() so the table
// is identical in every exec of the binary, parent and worker alike. A new
// name takes the next index, a replacement the old one — so a handle from
// the first registration still reaches the replacement's body (Current).
func Register(name string, h Handler) *Handler {
	if name == "" || h.Fn == nil {
		panic("registry: Register needs a name and a body")
	}
	regMu.Lock()
	defer regMu.Unlock()
	old := table.Load()
	next := &handlerTable{byID: slices.Clone(old.byID), byName: maps.Clone(old.byName)}
	h.name, h.id = name, uint32(len(old.byID))
	if prev := old.byName[name]; prev != nil {
		h.id = prev.id
		next.byID[h.id] = &h
	} else if h.id >= MaxHandlers {
		panic(fmt.Sprintf("registry: %q would be handler %d; the table holds %d", name, h.id, MaxHandlers))
	} else {
		next.byID = append(next.byID, &h)
	}
	next.byName[name] = &h
	table.Store(next)
	return &h
}

// ID is the handler's index in the table: what a FrameCall carries in place
// of the name.
func (h *Handler) ID() uint32 { return h.id }

// Name is the call name the handler was registered under.
func (h *Handler) Name() string { return h.name }

// Current is the handler registered at h's index now: h itself, or the
// replacement a later Register under the same name installed — nil for a
// Handler that Register never returned. Lock-free and allocation-free:
// every queued call resolves its handle through it.
//
//decaf:hotpath
func (h *Handler) Current() *Handler {
	if cur := ByID(h.id); cur != nil && cur.name == h.name {
		return cur
	}
	return nil
}

// Lookup returns the handler registered for name, or nil. Lock-free and
// allocation-free: safe on the submit hot path.
//
//decaf:hotpath
func Lookup(name string) *Handler {
	return table.Load().byName[name]
}

// ByID returns the handler at index id, or nil outside the table. Lock-free
// and allocation-free: the worker resolves every call through it.
//
//decaf:hotpath
func ByID(id uint32) *Handler {
	t := table.Load().byID
	if int(id) >= len(t) {
		return nil
	}
	return t[id]
}

// Digest fingerprints what both sides must agree on for an index to mean
// the same body in each: every handler's name and Down flag, then every
// cell name, then every downcall name, in index order. The worker compares
// its own with the one the kernel side writes into the layout header.
func Digest() uint64 {
	return digest(table.Load().byID, cells.all(), downcalls.all())
}

// digest is FNV-1a over the names, each closed by a control byte that also
// says what it named: 1 a handler, 2 a Down handler, 0 a cell, 3 a
// downcall.
func digest(handlers []*Handler, cells, downcalls []string) uint64 {
	h := uint64(14695981039346656037)
	add := func(name string, end byte) {
		for i := 0; i < len(name); i++ {
			h = (h ^ uint64(name[i])) * 1099511628211
		}
		h = (h ^ uint64(end)) * 1099511628211
	}
	for _, hd := range handlers {
		end := byte(1)
		if hd.Down {
			end = 2
		}
		add(hd.name, end)
	}
	for _, name := range cells {
		add(name, 0)
	}
	for _, name := range downcalls {
		add(name, 3)
	}
	return h
}

// Names lists the registered handler names in index order: Names()[i]
// names ByID(i).
func Names() []string {
	t := table.Load().byID
	out := make([]string, len(t))
	for i, h := range t {
		out[i] = h.name
	}
	return out
}

// A Downcall is a declared downcall's index in the process-global downcall
// table: what a handler body passes to Ctx.Downcall, what a FrameDown
// carries, and what a runtime binds its kernel-side target to. Declare
// every downcall from a package-level var initializer, so the indices are
// identical in every exec of the binary.
type Downcall uint32

var downcalls names

// DeclareDowncall allocates (or returns the existing) downcall for name.
func DeclareDowncall(name string) Downcall {
	if name == "" {
		panic("registry: DeclareDowncall needs a name")
	}
	d := Downcall(downcalls.index(name))
	if d >= MaxDowncalls {
		panic(fmt.Sprintf("registry: downcall %q is number %d; the table holds %d", name, d, MaxDowncalls))
	}
	return d
}

// Name is the name d was declared under, or "#<index>" for an index
// outside the table (a lying peer's). Lock-free.
//
//decaf:hotpath
func (d Downcall) Name() string {
	if all := downcalls.all(); int(d) < len(all) {
		return all[d]
	}
	return "#" + strconv.FormatUint(uint64(d), 10) //decaf:allowalloc an index outside the table: a lying peer's, on its error path
}

// DowncallNames lists the declared downcall names in index order:
// DowncallNames()[i] names Downcall(i). The slice is shared: do not modify.
func DowncallNames() []string { return downcalls.all() }

// names is a dense, append-only table of names, the shape of both the cell
// and the downcall tables: a name gets the next index the first time it is
// declared, and reads are lock-free.
type names struct {
	mu   sync.Mutex
	list atomic.Pointer[[]string]
}

// index returns name's index, appending it first when it is new. The
// append may reuse the backing array a published view shares: no view
// reaches past its own length, so none sees the new element early.
func (t *names) index(name string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	all := t.all()
	if i := slices.Index(all, name); i >= 0 {
		return i
	}
	next := append(all, name)
	t.list.Store(&next)
	return len(all)
}

// all lists the names in index order. The slice is shared: do not modify.
//
//decaf:hotpath
func (t *names) all() []string {
	if p := t.list.Load(); p != nil {
		return *p
	}
	return nil
}
