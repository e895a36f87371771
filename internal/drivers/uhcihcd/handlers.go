package uhcihcd

import (
	"fmt"
	"time"

	"decafdrivers/internal/decaf/registry"
	"decafdrivers/internal/hw/uhcihw"
	"decafdrivers/internal/kernel"
)

// cellPort is each root-hub port's final status, registered at package init
// so parent and re-exec'd worker agree on the index. The start body writes it
// from whichever process it executes in; the kernel side adopts it
// (adoptStart).
var cellPort = [numPorts]registry.Cell{registry.RegisterCell("uhci.port_0"), registry.RegisterCell("uhci.port_1")}

// suspendBodyCost is the user-level work of one suspend pass, excluding the
// controller-stop downcall.
const suspendBodyCost = 200 * time.Nanosecond

// resetWrites are the global reset's register writes, in order. The
// uhci_reset_write target takes an index into this table, so the untrusted
// side picks a step, never a register or a value.
var resetWrites = [...]struct{ off, v uint16 }{
	{uhcihw.RegUSBCMD, uhcihw.CmdGReset}, {uhcihw.RegUSBCMD, 0},
	{uhcihw.RegUSBCMD, uhcihw.CmdHCReset}, {uhcihw.RegUSBINTR, 0},
	{uhcihw.RegUSBSTS, 0xFFFF},
}

// configSteps follow schedule allocation: controller identification and
// start-of-frame calibration, the frame list, frame number, SOF timing and
// interrupt enables, then the legacy-support handoff every UHCI bring-up
// performs — each a fixed-register kernel entry.
var configSteps = []string{
	"uhci_read_version", "uhci_read_version", "uhci_read_version", "uhci_read_version",
	"uhci_sof_trim", "uhci_sof_trim", "uhci_sof_trim", "uhci_sof_trim",
	"uhci_io_write:flbaseadd", "uhci_io_write:frnum", "uhci_io_write:sofmod", "uhci_io_write:usbintr",
	"uhci_legsup_write", "uhci_legsup_write", "uhci_legsup_write", "uhci_legsup_write",
}

// portSteps bring up one root-hub port: baseline status, reset, four polls
// until the reset latches, clear, verify enable, final status. Port state
// lives behind kernel entry points, which is why uhci-hcd's initialization
// makes ~49 crossings (Table 3).
var portSteps = []string{
	"uhci_port_status", "uhci_port_reset",
	"uhci_port_status", "uhci_port_status", "uhci_port_status", "uhci_port_status",
	"uhci_port_reset_clear", "uhci_port_enable_check", "uhci_port_status",
}

// finalSteps verify the frame number and status, then run the controller.
var finalSteps = []string{"uhci_frnum_check", "uhci_status_check", "uhci_run"}

// steps issues each named downcall with arg and returns the last result,
// raising the decaf driver's checked exception over a failed one.
func steps(c *registry.Ctx, arg uint64, names ...string) (uint64, error) {
	var v uint64
	for _, name := range names {
		var err error
		if v, err = c.Downcall(name, arg); err != nil {
			return 0, fmt.Errorf("%s: %s: %w", HWException, name, err)
		}
	}
	return v, nil
}

// The decaf driver is the paper's three converted functions — reset,
// configure, suspend — registered in the handler table, so a
// process-separated transport executes them in the worker process. They
// reach the controller only through the scalar downcalls registerDowncalls
// installs.
//
//decaf:boundary
func init() {
	// uhci_start is the global reset through register-level writes, then
	// configuration: the schedule, configSteps, each port, the run bit.
	registry.Register("uhci_start", registry.Handler{
		Down: true,
		Fn: func(c *registry.Ctx) error {
			for i := range resetWrites {
				if _, err := steps(c, uint64(i), "uhci_reset_write"); err != nil {
					return err
				}
			}
			sts, err := steps(c, 0, "uhci_status_check")
			if err != nil {
				return err
			}
			if sts&uhcihw.StsHalted == 0 {
				return fmt.Errorf("%s: controller did not halt after reset: sts=%#x", HWException, sts)
			}
			if _, err := steps(c, 0, "uhci_alloc_schedule"); err != nil {
				return err
			}
			if _, err := steps(c, 0, configSteps...); err != nil {
				return err
			}
			for port, cell := range cellPort {
				sc, err := steps(c, uint64(port), portSteps...)
				if err != nil {
					return err
				}
				c.State.Store(cell, sc)
			}
			_, err = steps(c, 0, finalSteps...)
			return err
		},
	})
	registry.Register("uhci_suspend", registry.Handler{
		Cost: suspendBodyCost,
		Down: true,
		Fn: func(c *registry.Ctx) error {
			_, err := c.Downcall("uhci_stop", 0)
			return err
		},
	})
}

// registerDowncalls installs the kernel-side targets the decaf bodies name:
// register-level entry points, each a scalar in and a scalar out, checking
// the arguments the untrusted side supplies. Per-Runtime, so each driver
// instance's bodies reach its controller. Register waits elapse in the
// targets they belong to: a body in the worker process has no virtual clock.
func (d *Driver) registerDowncalls() {
	reg := d.rt.RegisterDowncall
	fixed := func(name string, fn func(kctx *kernel.Context) uint64) {
		reg(name, func(kctx *kernel.Context, _ uint64) (uint64, error) { return fn(kctx), nil })
	}
	// uhci_reset_write takes an index into resetWrites. A global reset is
	// held for 50 ms before the write returns.
	reg("uhci_reset_write", func(kctx *kernel.Context, i uint64) (uint64, error) {
		if i >= uint64(len(resetWrites)) {
			return 0, fmt.Errorf("uhci-hcd: no reset step %d", i)
		}
		w := resetWrites[i]
		d.outw(w.off, w.v)
		if w.off == uhcihw.RegUSBCMD && w.v == uhcihw.CmdGReset {
			kctx.MSleep(50)
		}
		return 0, nil
	})
	reg("uhci_alloc_schedule", func(kctx *kernel.Context, _ uint64) (uint64, error) {
		return 0, d.allocSchedule(kctx)
	})
	frnum := func(*kernel.Context) uint64 { return uint64(d.inw(uhcihw.RegFRNUM)) }
	sofmod := func(*kernel.Context) uint64 { d.outb(uhcihw.RegSOFMOD, 64); return 0 }
	fixed("uhci_read_version", frnum)
	fixed("uhci_frnum_check", frnum)
	fixed("uhci_status_check", func(*kernel.Context) uint64 { return uint64(d.inw(uhcihw.RegUSBSTS)) })
	fixed("uhci_sof_trim", sofmod)
	fixed("uhci_io_write:sofmod", sofmod)
	// The kernel programs the schedule it owns: the address never comes
	// from the untrusted side.
	fixed("uhci_io_write:flbaseadd", func(*kernel.Context) uint64 { d.outl(uhcihw.RegFLBASEADD, uint32(d.frameList)); return 0 })
	fixed("uhci_io_write:frnum", func(*kernel.Context) uint64 { d.outw(uhcihw.RegFRNUM, 0); return 0 })
	fixed("uhci_io_write:usbintr", func(*kernel.Context) uint64 { d.outw(uhcihw.RegUSBINTR, 0xF); return 0 })
	fixed("uhci_legsup_write", func(*kernel.Context) uint64 { d.outw(uhcihw.RegUSBSTS, 0); return 0 })
	// Running the controller includes the device enumeration settle, per
	// Table 3's 1.3 s native init.
	fixed("uhci_run", func(kctx *kernel.Context) uint64 { d.outw(uhcihw.RegUSBCMD, uhcihw.CmdRS); kctx.MSleep(1000); return 0 })
	fixed("uhci_stop", func(*kernel.Context) uint64 { d.stopHC(); return 0 })

	// Root-hub port targets take the port number.
	port := func(name string, fn func(kctx *kernel.Context, portsc uint16) uint64) {
		reg(name, func(kctx *kernel.Context, p uint64) (uint64, error) {
			if p >= numPorts {
				return 0, fmt.Errorf("uhci-hcd: no root-hub port %d", p)
			}
			return fn(kctx, uhcihw.RegPORTSC1+2*uint16(p)), nil
		})
	}
	status := func(_ *kernel.Context, portsc uint16) uint64 { return uint64(d.inw(portsc)) }
	port("uhci_port_status", status)
	port("uhci_port_enable_check", status)
	// The reset is held 50 ms — the spec's 10 ms and the C driver's margin.
	port("uhci_port_reset", func(kctx *kernel.Context, portsc uint16) uint64 {
		d.outw(portsc, uhcihw.PortReset)
		kctx.MSleep(50)
		return 0
	})
	port("uhci_port_reset_clear", func(_ *kernel.Context, portsc uint16) uint64 { d.outw(portsc, 0); return 0 })
}

// stopHC halts the controller.
func (d *Driver) stopHC() {
	d.outw(uhcihw.RegUSBCMD, 0)
	d.dev.Stop()
	d.State.Running = false
}

// adoptStart copies what the start body established into the
// kernel-resident controller state.
func (d *Driver) adoptStart() {
	st := d.rt.SharedState()
	for i, cell := range cellPort {
		d.State.Port[i] = uint32(st.Load(cell))
	}
	d.State.Running = true
}

// ControllerRunning reports whether the controller is running.
func (d *Driver) ControllerRunning() bool { return d.State.Running }
