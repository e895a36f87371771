package decaf

import "decafdrivers/internal/decaf/registry"

// This file re-exports the handler-table API (internal/decaf/registry) under
// the decaf package, so driver authors write their whole decaf side against
// one import. The registry itself stays a stdlib-only leaf package because
// internal/xpc must import it too; the aliases below are the driver-facing
// names.
//
// # Writing a decaf call body
//
// A decaf call body is a named, package-level function registered from
// init(). It must not close over the driver instance: under the proc
// transport the body executes in the worker process, which is a re-exec of
// the same binary — the init()-built table and cell indices match on both
// sides, but a *Driver pointer would not. Everything the body needs arrives
// through its HandlerCtx:
//
//   - ctx.Data — the call's payload bytes (marshaled copy, or the worker's
//     view of a payload-ring slot).
//   - ctx.State — the shared state cells, shm-backed under the proc
//     transport so worker-side writes are visible to the kernel side.
//   - ctx.Downcall — a real boundary crossing back into the kernel, for
//     bodies registered with Down: true.
//
// A worked example, following the e1000 conversion (its watchdog reads link
// status from the device and tells the kernel when the carrier changes):
//
//	var (
//		cellRuns   = decaf.RegisterCell("e1000.watchdog_runs")
//		cellLinkUp = decaf.RegisterCell("e1000.link_up")
//	)
//
//	func init() {
//		decaf.RegisterHandler("e1000_watchdog", decaf.Handler{
//			Cost: 500 * time.Nanosecond, // virtual CPU charged kernel-side
//			Down: true,                  // body makes nested downcalls
//			Fn: func(c *decaf.HandlerCtx) error {
//				c.State.Add(cellRuns, 1)
//				status, err := c.Downcall("e1000_read_status", 0)
//				if err != nil {
//					return err
//				}
//				up := uint64(0)
//				if uint32(status)&e1000hw.StatusLU != 0 {
//					up = 1
//				}
//				if c.State.Load(cellLinkUp) != up {
//					c.State.Store(cellLinkUp, up)
//					_, err = c.Downcall("netif_carrier_change", up)
//				}
//				return err
//			},
//		})
//	}
//
// The downcall targets are per-driver-instance closures, registered on the
// Runtime (not the process-global table) because they run kernel-side in the
// parent and may touch the device and kernel state freely:
//
//	func (d *Driver) registerDowncalls() { // called from New()
//		d.rt.RegisterDowncall("e1000_read_status", func(kctx *kernel.Context, _ uint64) (uint64, error) {
//			return uint64(d.dev.PCI.MMIORead(0, e1000hw.RegSTATUS, 4)), nil
//		})
//		d.rt.RegisterDowncall("netif_carrier_change", func(kctx *kernel.Context, up uint64) (uint64, error) {
//			d.Adapter.LinkUp = up != 0 // kernel-side mirror of the cell
//			// ... netif_carrier_on/off ...
//			return 0, nil
//		})
//	}
//
// The kernel side invokes the body by name — rt.UpcallHandler(ctx,
// "e1000_watchdog") for control-path calls, b.UpcallHandlerPayload(
// "e1000_xmit_frame", payload) for batched data-path calls — and reads the
// results back through the same cells: d.rt.SharedState().Load(cellRuns).
// Every transport dispatches the identical Fn; only where it executes
// differs.
type (
	// Handler is one registered decaf call body; see registry.Handler.
	Handler = registry.Handler
	// HandlerCtx is the body's window on the call: payload bytes, shared
	// state cells, and the downcall hook. Alias of registry.Ctx.
	HandlerCtx = registry.Ctx
	// Cell indexes one 64-bit word of shared driver state; see
	// registry.Cell.
	Cell = registry.Cell
	// SharedState is a driver instance's state-cell area; see
	// registry.State.
	SharedState = registry.State
)

// RegisterHandler installs a decaf call body under a stable name. Call it
// from init() so parent and re-exec'd worker build identical tables.
func RegisterHandler(name string, h Handler) { registry.Register(name, h) }

// RegisterCell allocates (or finds) the named shared-state cell. Call it
// from package-level var initializers so the allocation order — and thus
// every cell's index — is deterministic across re-execs.
func RegisterCell(name string) Cell { return registry.RegisterCell(name) }

// HandlerNames lists the registered call names, sorted.
func HandlerNames() []string { return registry.Names() }
