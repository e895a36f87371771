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

// The downcalls the bodies make: each body names its register-level entry
// point by handle, and registerDowncalls binds this instance's target to it.
var (
	downResetWrite       = registry.DeclareDowncall("uhci_reset_write")
	downStatusCheck      = registry.DeclareDowncall("uhci_status_check")
	downAllocSchedule    = registry.DeclareDowncall("uhci_alloc_schedule")
	downReadVersion      = registry.DeclareDowncall("uhci_read_version")
	downSOFTrim          = registry.DeclareDowncall("uhci_sof_trim")
	downIOWriteFLBaseAdd = registry.DeclareDowncall("uhci_io_write:flbaseadd")
	downIOWriteFrnum     = registry.DeclareDowncall("uhci_io_write:frnum")
	downIOWriteSOFMod    = registry.DeclareDowncall("uhci_io_write:sofmod")
	downIOWriteUSBIntr   = registry.DeclareDowncall("uhci_io_write:usbintr")
	downLegsupWrite      = registry.DeclareDowncall("uhci_legsup_write")
	downPortStatus       = registry.DeclareDowncall("uhci_port_status")
	downPortReset        = registry.DeclareDowncall("uhci_port_reset")
	downPortResetClear   = registry.DeclareDowncall("uhci_port_reset_clear")
	downPortEnableCheck  = registry.DeclareDowncall("uhci_port_enable_check")
	downFrnumCheck       = registry.DeclareDowncall("uhci_frnum_check")
	downRun              = registry.DeclareDowncall("uhci_run")
	downStop             = registry.DeclareDowncall("uhci_stop")
)

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
var configSteps = []registry.Downcall{
	downReadVersion, downReadVersion, downReadVersion, downReadVersion,
	downSOFTrim, downSOFTrim, downSOFTrim, downSOFTrim,
	downIOWriteFLBaseAdd, downIOWriteFrnum, downIOWriteSOFMod, downIOWriteUSBIntr,
	downLegsupWrite, downLegsupWrite, downLegsupWrite, downLegsupWrite,
}

// portSteps bring up one root-hub port: baseline status, reset, four polls
// until the reset latches, clear, verify enable, final status. Port state
// lives behind kernel entry points, which is why uhci-hcd's initialization
// makes ~49 crossings (Table 3).
var portSteps = []registry.Downcall{
	downPortStatus, downPortReset,
	downPortStatus, downPortStatus, downPortStatus, downPortStatus,
	downPortResetClear, downPortEnableCheck, downPortStatus,
}

// finalSteps verify the frame number and status, then run the controller.
var finalSteps = []registry.Downcall{downFrnumCheck, downStatusCheck, downRun}

// steps issues each downcall with arg and returns the last result, raising
// the decaf driver's checked exception over a failed one.
func steps(c *registry.Ctx, arg uint64, downs ...registry.Downcall) (uint64, error) {
	var v uint64
	for _, down := range downs {
		var err error
		if v, err = c.Downcall(down, arg); err != nil {
			return 0, fmt.Errorf("%s: %s: %w", HWException, down.Name(), err)
		}
	}
	return v, nil
}

// The decaf driver is the paper's three converted functions — reset,
// configure, suspend — registered in the handler table, so a
// process-separated transport executes them in the worker process. They
// reach the controller only through the scalar downcalls registerDowncalls
// installs. The kernel side crosses with the handles init assigns.
var hStart, hSuspend *registry.Handler

//decaf:boundary
func init() {
	// uhci_start is the global reset through register-level writes, then
	// configuration: the schedule, configSteps, each port, the run bit.
	hStart = registry.Register("uhci_start", registry.Handler{
		Down: true,
		Fn: func(c *registry.Ctx) error {
			for i := range resetWrites {
				if _, err := steps(c, uint64(i), downResetWrite); err != nil {
					return err
				}
			}
			sts, err := steps(c, 0, downStatusCheck)
			if err != nil {
				return err
			}
			if sts&uhcihw.StsHalted == 0 {
				return fmt.Errorf("%s: controller did not halt after reset: sts=%#x", HWException, sts)
			}
			if _, err := steps(c, 0, downAllocSchedule); err != nil {
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
	hSuspend = registry.Register("uhci_suspend", registry.Handler{
		Cost: suspendBodyCost,
		Down: true,
		Fn: func(c *registry.Ctx) error {
			_, err := c.Downcall(downStop, 0)
			return err
		},
	})
}

// registerDowncalls binds the kernel-side targets of the bodies' downcalls:
// register-level entry points, each a scalar in and a scalar out, checking
// the arguments the untrusted side supplies. Per-Runtime, so each driver
// instance's bodies reach its controller. Register waits elapse in the
// targets they belong to: a body in the worker process has no virtual clock.
func (d *Driver) registerDowncalls() {
	reg := d.rt.BindDowncall
	fixed := func(down registry.Downcall, fn func(kctx *kernel.Context) uint64) {
		reg(down, func(kctx *kernel.Context, _ uint64) (uint64, error) { return fn(kctx), nil })
	}
	// uhci_reset_write takes an index into resetWrites. A global reset is
	// held for 50 ms before the write returns.
	reg(downResetWrite, func(kctx *kernel.Context, i uint64) (uint64, error) {
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
	reg(downAllocSchedule, func(kctx *kernel.Context, _ uint64) (uint64, error) {
		return 0, d.allocSchedule(kctx)
	})
	frnum := func(*kernel.Context) uint64 { return uint64(d.inw(uhcihw.RegFRNUM)) }
	sofmod := func(*kernel.Context) uint64 { d.outb(uhcihw.RegSOFMOD, 64); return 0 }
	fixed(downReadVersion, frnum)
	fixed(downFrnumCheck, frnum)
	fixed(downStatusCheck, func(*kernel.Context) uint64 { return uint64(d.inw(uhcihw.RegUSBSTS)) })
	fixed(downSOFTrim, sofmod)
	fixed(downIOWriteSOFMod, sofmod)
	// The kernel programs the schedule it owns: the address never comes
	// from the untrusted side.
	fixed(downIOWriteFLBaseAdd, func(*kernel.Context) uint64 { d.outl(uhcihw.RegFLBASEADD, uint32(d.frameList)); return 0 })
	fixed(downIOWriteFrnum, func(*kernel.Context) uint64 { d.outw(uhcihw.RegFRNUM, 0); return 0 })
	fixed(downIOWriteUSBIntr, func(*kernel.Context) uint64 { d.outw(uhcihw.RegUSBINTR, 0xF); return 0 })
	fixed(downLegsupWrite, func(*kernel.Context) uint64 { d.outw(uhcihw.RegUSBSTS, 0); return 0 })
	// Running the controller includes the device enumeration settle, per
	// Table 3's 1.3 s native init.
	fixed(downRun, func(kctx *kernel.Context) uint64 { d.outw(uhcihw.RegUSBCMD, uhcihw.CmdRS); kctx.MSleep(1000); return 0 })
	fixed(downStop, func(*kernel.Context) uint64 { d.stopHC(); return 0 })

	// Root-hub port targets take the port number.
	port := func(down registry.Downcall, fn func(kctx *kernel.Context, portsc uint16) uint64) {
		reg(down, func(kctx *kernel.Context, p uint64) (uint64, error) {
			if p >= numPorts {
				return 0, fmt.Errorf("uhci-hcd: no root-hub port %d", p)
			}
			return fn(kctx, uhcihw.RegPORTSC1+2*uint16(p)), nil
		})
	}
	status := func(_ *kernel.Context, portsc uint16) uint64 { return uint64(d.inw(portsc)) }
	port(downPortStatus, status)
	port(downPortEnableCheck, status)
	// The reset is held 50 ms — the spec's 10 ms and the C driver's margin.
	port(downPortReset, func(kctx *kernel.Context, portsc uint16) uint64 {
		d.outw(portsc, uhcihw.PortReset)
		kctx.MSleep(50)
		return 0
	})
	port(downPortResetClear, func(_ *kernel.Context, portsc uint16) uint64 { d.outw(portsc, 0); return 0 })
}

// stopHC halts the controller.
func (d *Driver) stopHC() {
	d.outw(uhcihw.RegUSBCMD, 0)
	d.dev.Stop()
	d.State.Running = false
}

// adoptStart copies what the start body established into the
// kernel-resident controller state. The port cells come from memory the
// worker writes, and PORTSC is a 16-bit register read with Inw: a wider
// value is refused before anything is adopted.
func (d *Driver) adoptStart() error {
	st := d.rt.SharedState()
	var ports [numPorts]uint64
	for i, cell := range cellPort {
		if ports[i] = st.Load(cell); ports[i] > 0xFFFF {
			return fmt.Errorf("uhci-hcd: start reported port %d status %#x, wider than PORTSC", i, ports[i])
		}
	}
	for i, v := range ports {
		d.State.Port[i] = uint32(v)
	}
	d.State.Running = true
	return nil
}
