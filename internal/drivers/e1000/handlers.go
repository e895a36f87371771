package e1000

import (
	"encoding/binary"
	"fmt"
	"time"

	"decafdrivers/internal/decaf/registry"
	"decafdrivers/internal/hw/e1000hw"
	"decafdrivers/internal/kernel"
)

// Shared state cells for the decaf-resident bodies. Cells are registered at
// package init so the parent and a re-exec'd worker agree on the indices,
// and under a process-separated transport they live in the shared mapping:
// what the decaf side learns reaches the kernel without marshaling an
// adapter, because both sides read the same memory.
var (
	cellTxFrames     = registry.RegisterCell("e1000.decaf_tx_frames")
	cellRxFrames     = registry.RegisterCell("e1000.decaf_rx_frames")
	cellWatchdogRuns = registry.RegisterCell("e1000.watchdog_runs")
	cellLinkUp       = registry.RegisterCell("e1000.link_up")

	// The probe body's results, which the kernel adopts into Adapter.
	cellTxRing      = registry.RegisterCell("e1000.tx_ring_size")
	cellRxRing      = registry.RegisterCell("e1000.rx_ring_size")
	cellFlowControl = registry.RegisterCell("e1000.flow_control")
	cellMsgEnable   = registry.RegisterCell("e1000.msg_enable")
	cellMAC         = registry.RegisterCell("e1000.mac")
	cellPhyID       = registry.RegisterCell("e1000.phy_id")
)

// probeCells are the cells the probe body writes and recovery clears.
var probeCells = [...]registry.Cell{cellTxRing, cellRxRing, cellFlowControl, cellMsgEnable, cellMAC, cellPhyID}

// The downcalls the bodies make: each body names its kernel-side entry
// point by handle, and registerDowncalls binds this instance's target to it.
var (
	downReadStatus       = registry.DeclareDowncall("e1000_read_status")
	downCarrierChange    = registry.DeclareDowncall("netif_carrier_change")
	downResetHW          = registry.DeclareDowncall("e1000_reset_hw")
	downReadEEPROM       = registry.DeclareDowncall("e1000_read_eeprom")
	downReadPHYReg       = registry.DeclareDowncall("e1000_read_phy_reg")
	downWritePHYReg      = registry.DeclareDowncall("e1000_write_phy_reg")
	downPCISaveState     = registry.DeclareDowncall("pci_save_state")
	downSetupTxResources = registry.DeclareDowncall("e1000_setup_all_tx_resources")
	downSetupRxResources = registry.DeclareDowncall("e1000_setup_all_rx_resources")
	downRequestIRQ       = registry.DeclareDowncall("e1000_request_irq")
	downUp               = registry.DeclareDowncall("e1000_up")
	downDown             = registry.DeclareDowncall("e1000_down")
	downFreeIRQ          = registry.DeclareDowncall("e1000_free_irq")
	downFreeTxResources  = registry.DeclareDowncall("e1000_free_all_tx_resources")
	downFreeRxResources  = registry.DeclareDowncall("e1000_free_all_rx_resources")
)

// Decaf-side per-frame handling costs in the decaf data path: cheaper than a
// crossing by orders of magnitude, so batching gains show up as crossing
// savings rather than being drowned by user-level work.
const (
	decafTxFrameCost = 350 * time.Nanosecond
	decafRxFrameCost = 600 * time.Nanosecond
	// watchdogBodyCost is the user-level work of one watchdog pass (link
	// evaluation and statistics), excluding its downcalls.
	watchdogBodyCost = 500 * time.Nanosecond
)

// The handler table holds the whole decaf driver: every body executes in
// the worker process under a process-separated transport (and dispatches
// inline under the in-process ones). Bodies reach driver state only through
// the shared cells and reach the kernel or device only through the scalar
// downcalls registerDowncalls installs — the same discipline process
// separation enforces physically. The kernel side crosses with the handles
// init assigns.
var hProbe, hOpen, hClose, hXmitFrame, hRxFrame, hWatchdog *registry.Handler

//decaf:boundary
func init() {
	// The control plane (decaf.go): probe takes the module parameters as
	// its payload; open is Figure 4; close releases what open acquired.
	hProbe = registry.Register("e1000_probe", registry.Handler{Down: true, Fn: run(decafCall.probe)})
	hOpen = registry.Register("e1000_open", registry.Handler{Down: true, Fn: run(decafCall.open)})
	hClose = registry.Register("e1000_close", registry.Handler{Down: true, Fn: run(decafCall.close)})
	// e1000_xmit_frame is the decaf-driver TX body in the decaf data path:
	// user-level frame validation and accounting. The hardware submit stays
	// in the nucleus after the flight is reaped.
	hXmitFrame = registry.Register("e1000_xmit_frame", registry.Handler{
		Cost: decafTxFrameCost,
		Fn: func(c *registry.Ctx) error {
			c.State.Add(cellTxFrames, 1)
			return nil
		},
	})
	// e1000_rx_frame is the decaf-driver RX body: user-level inspection of a
	// received frame before the nucleus hands it up the stack.
	hRxFrame = registry.Register("e1000_rx_frame", registry.Handler{
		Cost: decafRxFrameCost,
		Fn: func(c *registry.Ctx) error {
			c.State.Add(cellRxFrames, 1)
			return nil
		},
	})
	// e1000_watchdog is the two-second watchdog body, running in the decaf
	// driver because the kernel timer defers it to a work item (§3.1.3). It
	// reads link state from the device through a downcall and reports
	// carrier changes to the kernel through another.
	hWatchdog = registry.Register("e1000_watchdog", registry.Handler{
		Cost: watchdogBodyCost,
		Down: true,
		Fn: func(c *registry.Ctx) error {
			c.State.Add(cellWatchdogRuns, 1)
			status, err := c.Downcall(downReadStatus, 0)
			if err != nil {
				return err
			}
			linkNow := uint32(status)&e1000hw.StatusLU != 0
			if linkNow != (c.State.Load(cellLinkUp) != 0) {
				var v uint64
				if linkNow {
					v = 1
				}
				c.State.Store(cellLinkUp, v)
				if _, err := c.Downcall(downCarrierChange, v); err != nil {
					return err
				}
			}
			return nil
		},
	})
}

// registerDowncalls binds the kernel-side targets of the bodies' downcalls:
// the nucleus entry points, each a scalar in and a scalar out. Registration
// is per-Runtime, so each driver instance's bodies reach that instance's
// device and netdev. The arguments come from the untrusted side and are
// checked here before anything is touched. Each wait the C driver sleeps
// elapses in the target it belongs to: a body in the worker has no virtual
// clock.
func (d *Driver) registerDowncalls() {
	n := d.nuc
	void := func(down registry.Downcall, fn func(kctx *kernel.Context)) {
		d.rt.BindDowncall(down, func(kctx *kernel.Context, _ uint64) (uint64, error) {
			fn(kctx)
			return 0, nil
		})
	}
	errno := func(down registry.Downcall, fn func(kctx *kernel.Context) error) {
		d.rt.BindDowncall(down, func(kctx *kernel.Context, _ uint64) (uint64, error) {
			return 0, fn(kctx)
		})
	}
	d.rt.BindDowncall(downReadStatus, func(kctx *kernel.Context, _ uint64) (uint64, error) {
		return d.dev.PCI.MMIORead(0, e1000hw.RegSTATUS, 4), nil
	})
	d.rt.BindDowncall(downCarrierChange, func(kctx *kernel.Context, arg uint64) (uint64, error) {
		up := arg != 0
		// Mirror the cell into the kernel adapter: the nucleus and the
		// harness read link state here, not from the decaf cells.
		d.Adapter.LinkUp = up
		if d.netdev == nil {
			return 0, nil
		}
		if up {
			d.netdev.CarrierOn()
		} else {
			d.netdev.CarrierOff()
		}
		return 0, nil
	})
	// e1000_reset_hw resets the device and waits out the 100 ms settle.
	void(downResetHW, func(kctx *kernel.Context) {
		n.resetHW(kctx)
		kctx.MSleep(100)
	})
	d.rt.BindDowncall(downReadEEPROM, d.readEEPROM)
	// e1000_read_phy_reg and e1000_write_phy_reg (reg<<16 | value) return
	// the C convention, a negative errno on an MDIC failure, which the body
	// turns into an exception (Figure 5).
	d.rt.BindDowncall(downReadPHYReg, func(kctx *kernel.Context, reg uint64) (uint64, error) {
		if reg > phyMaxReg {
			return 0, fmt.Errorf("e1000: PHY register %#x out of range", reg)
		}
		v, code := n.phyRead(kctx, uint32(reg))
		if code < 0 {
			return uint64(int64(code)), nil
		}
		return uint64(v), nil
	})
	// Writing dspReconfigure to the DSP register starts the DSP's
	// reconfiguration, which the write waits out (20 ms).
	d.rt.BindDowncall(downWritePHYReg, func(kctx *kernel.Context, arg uint64) (uint64, error) {
		reg, val := arg>>16, uint16(arg)
		if reg > phyMaxReg {
			return 0, fmt.Errorf("e1000: PHY register %#x out of range", reg)
		}
		code := n.phyWrite(kctx, uint32(reg), val)
		if reg == phyDSPReg && val == dspReconfigure {
			kctx.MSleep(20)
		}
		return uint64(int64(code)), nil
	})
	// pci_save_state is probe's last step: the device is identified, so
	// autonegotiation starts, and the target waits its 200 ms as the C
	// probe does.
	void(downPCISaveState, func(kctx *kernel.Context) {
		n.snapshotConfigSpace(kctx)
		kctx.MSleep(200)
	})
	errno(downSetupTxResources, n.setupTxResources)
	errno(downSetupRxResources, n.setupRxResources)
	errno(downRequestIRQ, n.requestIRQ)
	void(downUp, n.up)
	void(downDown, n.down)
	void(downFreeIRQ, n.freeIRQ)
	void(downFreeTxResources, n.freeTxResources)
	void(downFreeRxResources, n.freeRxResources)
}

// phyMaxReg is the last register of the 5-bit MII space.
const phyMaxReg = 0x1F

// readEEPROM is the e1000_read_eeprom target: one word per downcall, because
// EERD is shared with the data path and must be serialized in the kernel.
// The word lands in the adapter's EEPROM shadow as well as going back to
// the body, which checks the checksum over what it read.
func (d *Driver) readEEPROM(kctx *kernel.Context, addr uint64) (uint64, error) {
	if addr >= EEPROMWords {
		return 0, fmt.Errorf("e1000: EEPROM address %d out of range", addr)
	}
	w, err := d.nuc.readEEPROMWord(kctx, uint32(addr))
	if err != nil {
		return 0, err
	}
	d.Adapter.EEPROM[addr] = w
	return uint64(w), nil
}

// probe crosses into the decaf probe body with the module parameters as its
// payload, then adopts the settings the body reports through the cells. The
// ring sizes size DMA allocations, so they are checked again here.
func (d *Driver) probe(ctx *kernel.Context) error {
	var params [paramsLen]byte
	for i, p := range moduleParams {
		v, ok := d.opts[p.Name()]
		if !ok {
			continue
		}
		if v != int(int32(v)) {
			return fmt.Errorf("e1000: module parameter %s=%d out of range", p.Name(), v)
		}
		binary.LittleEndian.PutUint32(params[i*paramSlot:], 1)
		binary.LittleEndian.PutUint32(params[i*paramSlot+4:], uint32(int32(v)))
	}
	if err := d.rt.CallData(ctx, hProbe, params[:]); err != nil {
		return err
	}
	st := d.rt.SharedState()
	tx, rx := st.Load(cellTxRing), st.Load(cellRxRing)
	if tx < MinRing || tx > MaxRing || rx < MinRing || rx > MaxRing {
		return fmt.Errorf("e1000: probe reported ring sizes %d/%d outside [%d, %d]", tx, rx, MinRing, MaxRing)
	}
	a := d.Adapter
	a.TxRingSize, a.RxRingSize = uint32(tx), uint32(rx)
	a.FlowControl = uint32(st.Load(cellFlowControl))
	a.MsgEnable = int32(st.Load(cellMsgEnable))
	mac := st.Load(cellMAC)
	for i := range a.MAC {
		a.MAC[i] = byte(mac >> (8 * i))
	}
	a.PhyID = uint32(st.Load(cellPhyID))
	return nil
}

// open crosses into the decaf open body. A body that did not finish — it
// threw after request_irq, or the worker died under it — may leave
// resources behind that its handlers never released, so a failed open
// releases everything kernel-side; every release is idempotent. On success
// the link is evaluated at once, as the C driver does after e1000_up, and
// the cell mirrors it so the watchdog body (which may run in another
// process) compares against current state.
func (d *Driver) open(ctx *kernel.Context) error {
	if err := d.rt.Call(ctx, hOpen); err != nil {
		d.nuc.release(ctx)
		return err
	}
	if d.dev.LinkUp() {
		d.Adapter.LinkUp = true
		d.setLinkCell(true)
		d.netdev.CarrierOn()
	}
	return nil
}

// setLinkCell mirrors a kernel-side link transition into the shared cell the
// watchdog handler compares against.
func (d *Driver) setLinkCell(up bool) {
	var v uint64
	if up {
		v = 1
	}
	d.rt.SharedState().Store(cellLinkUp, v)
}

// DecafTxFrames reads the decaf data path's TX frame count.
func (d *Driver) DecafTxFrames() uint64 { return d.rt.SharedState().Load(cellTxFrames) }
