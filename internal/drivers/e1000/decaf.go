package e1000

import (
	"fmt"

	"decafdrivers/internal/decaf"
	"decafdrivers/internal/hw/e1000hw"
	"decafdrivers/internal/kernel"
)

// decafDriver is the user-level managed half of the split driver's
// control plane: probe, open/close, PHY and EEPROM management and parameter
// validation, all written in the exception style of the case study. Its
// methods operate on the decaf copy of the adapter and reach the kernel
// through downcall stubs. The steady-state bodies — the watchdog and the
// decaf data path's per-frame work — live in the handler table instead
// (handlers.go), so a process-separated transport executes them in the
// worker's address space.
//
//decaf:boundary
type decafDriver struct {
	drv *Driver

	// params is the module-parameter class hierarchy from §5.1.
	params []decaf.Param
}

func newDecafDriver(d *Driver) *decafDriver {
	return &decafDriver{
		drv: d,
		params: []decaf.Param{
			&decaf.RangeParam{BaseParam: decaf.BaseParam{ParamName: "TxDescriptors", Default: DefaultTxRing}, Min: MinRing, Max: MaxRing},
			&decaf.RangeParam{BaseParam: decaf.BaseParam{ParamName: "RxDescriptors", Default: DefaultRxRing}, Min: MinRing, Max: MaxRing},
			decaf.NewSetParam("Duplex", 0, 0, 1, 2),
			decaf.NewSetParam("FlowControl", 3, 0, 1, 2, 3),
			&decaf.BaseParam{ParamName: "Debug", Default: 3},
		},
	}
}

// adapter returns the decaf-side adapter copy.
func (dd *decafDriver) adapter() *Adapter { return dd.drv.DecafAdapter }

// checkOptions validates module parameters using the class hierarchy; an
// out-of-range or out-of-set value throws InvalidParameterException
// (e1000_param.c rewritten as classes, §5.1).
func (dd *decafDriver) checkOptions(opts map[string]int) {
	resolved := decaf.ValidateAll(dd.params, opts)
	a := dd.adapter()
	a.TxRingSize = uint32(resolved["TxDescriptors"])
	a.RxRingSize = uint32(resolved["RxDescriptors"])
	a.FlowControl = uint32(resolved["FlowControl"])
	a.MsgEnable = int32(resolved["Debug"])
}

// readEEPROM fills the adapter's EEPROM shadow through the Batch downcall
// builder: under the default per-call transport each word still costs one
// crossing (the Table 3 measurement), but under a batched transport the
// walk coalesces into one crossing per MaxBatch-word chunk,
// cutting init crossings from one-per-word to one-per-chunk. A failed read
// throws.
func (dd *decafDriver) readEEPROM(uctx *kernel.Context) {
	a := dd.adapter()
	var words [EEPROMWords]uint16
	b := dd.drv.rt.Batch(uctx)
	for addr := uint32(0); addr < EEPROMWords; addr++ {
		addr := addr
		b.Downcall("e1000_read_eeprom", func(kctx *kernel.Context) error {
			w, err := dd.drv.nuc.readEEPROMWord(kctx, addr)
			if err != nil {
				return fmt.Errorf("word %d: %w", addr, err)
			}
			words[addr] = w
			return nil
		})
	}
	if err := b.Flush(); err != nil {
		decaf.ThrowCause(HWException, err, "EEPROM read failed")
	}
	copy(a.EEPROM[:], words[:])
}

// validateEEPROMChecksum throws when the shadow's words do not sum to the
// required signature — the error path fault-injection tests exercise.
func (dd *decafDriver) validateEEPROMChecksum() {
	var sum uint16
	for _, w := range dd.adapter().EEPROM {
		sum += w
	}
	if sum != e1000hw.EEPROMChecksum {
		decaf.Throw(HWException, "EEPROM checksum %#x != %#x", sum, e1000hw.EEPROMChecksum)
	}
}

// macFromEEPROM decodes the hardware address from the shadow.
func (dd *decafDriver) macFromEEPROM() {
	a := dd.adapter()
	for i := 0; i < 3; i++ {
		w := a.EEPROM[i]
		a.MAC[2*i] = byte(w)
		a.MAC[2*i+1] = byte(w >> 8)
	}
}

// readPhyReg is the exception-style PHY accessor of Figure 5: the C version
// returned an error code the caller had to test and propagate; this version
// throws, so call sites shrink to bare calls.
func (dd *decafDriver) readPhyReg(uctx *kernel.Context, reg uint32) uint16 {
	var val uint16
	var code int
	err := dd.drv.rt.Downcall(uctx, "e1000_read_phy_reg", func(kctx *kernel.Context) error {
		val, code = dd.drv.nuc.phyRead(kctx, reg)
		return nil
	})
	if err != nil {
		decaf.ThrowCause(HWException, err, "phy read downcall failed")
	}
	decaf.Check(HWException, code, fmt.Sprintf("read_phy_reg(%#x)", reg))
	return val
}

// writePhyReg is the write twin of readPhyReg.
func (dd *decafDriver) writePhyReg(uctx *kernel.Context, reg uint32, v uint16) {
	var code int
	err := dd.drv.rt.Downcall(uctx, "e1000_write_phy_reg", func(kctx *kernel.Context) error {
		code = dd.drv.nuc.phyWrite(kctx, reg, v)
		return nil
	})
	if err != nil {
		decaf.ThrowCause(HWException, err, "phy write downcall failed")
	}
	decaf.Check(HWException, code, fmt.Sprintf("write_phy_reg(%#x)", reg))
}

// configDSPAfterLinkChange is the Figure 5 function rewritten with
// exceptions: the original C checked every return value; here failures
// propagate automatically.
func (dd *decafDriver) configDSPAfterLinkChange(uctx *kernel.Context) {
	savedData := dd.readPhyReg(uctx, 0x15) // 0x2F5B truncated to 5-bit MII space
	dd.writePhyReg(uctx, 0x15, 0x0003)
	dd.drv.helpers.Msleep(uctx, 20)
	dd.writePhyReg(uctx, 0x00, 0x0040) // IGP01E1000_IEEE_FORCE_GIGA
	dd.writePhyReg(uctx, 0x15, savedData)
}

// powerUpPhy brings the PHY out of power-down.
func (dd *decafDriver) powerUpPhy(uctx *kernel.Context) {
	ctrl := dd.readPhyReg(uctx, e1000hw.PhyCtrl)
	dd.writePhyReg(uctx, e1000hw.PhyCtrl, ctrl&^0x0800) // clear POWER_DOWN
}

// probe is the decaf-driver body of e1000_probe: reset, EEPROM validation,
// MAC extraction, PHY identification, configuration-space snapshot.
func (dd *decafDriver) probe(uctx *kernel.Context, opts map[string]int) {
	dd.checkOptions(opts)

	if err := dd.drv.rt.Downcall(uctx, "e1000_reset_hw", func(kctx *kernel.Context) error {
		dd.drv.nuc.resetHW(kctx)
		return nil
	}); err != nil {
		decaf.ThrowCause(HWException, err, "reset failed")
	}
	dd.drv.helpers.Msleep(uctx, 100) // post-reset settle, as the C driver waits

	dd.readEEPROM(uctx)
	dd.validateEEPROMChecksum()
	dd.macFromEEPROM()

	id1 := dd.readPhyReg(uctx, e1000hw.PhyID1)
	id2 := dd.readPhyReg(uctx, e1000hw.PhyID2)
	dd.adapter().PhyID = uint32(id1)<<16 | uint32(id2)

	if err := dd.drv.rt.Downcall(uctx, "pci_save_state", func(kctx *kernel.Context) error {
		dd.drv.nuc.snapshotConfigSpace(kctx)
		return nil
	}, dd.drv.Adapter); err != nil {
		decaf.ThrowCause(HWException, err, "config-space snapshot failed")
	}
	dd.adapter().Name = "eth0"
	dd.drv.helpers.Msleep(uctx, 200) // autonegotiation start, per the C driver
}

// open is the paper's Figure 4, verbatim in structure: nested handlers so a
// failure at any stage releases exactly the resources acquired before it,
// in reverse order, then rethrows.
func (dd *decafDriver) open(uctx *kernel.Context) {
	drv := dd.drv
	defer func() {
		if r := recover(); r != nil {
			if e, ok := r.(*decaf.Exception); ok {
				dd.reset(uctx)
				decaf.Rethrow(e)
			}
			panic(r)
		}
	}()

	/* allocate transmit descriptors */
	if err := drv.rt.Downcall(uctx, "e1000_setup_all_tx_resources", func(kctx *kernel.Context) error {
		return drv.nuc.setupTxResources(kctx)
	}); err != nil {
		decaf.ThrowCause(HWException, err, "tx resources")
	}
	decaf.TryCatch(func() {
		/* allocate receive descriptors */
		if err := drv.rt.Downcall(uctx, "e1000_setup_all_rx_resources", func(kctx *kernel.Context) error {
			return drv.nuc.setupRxResources(kctx)
		}); err != nil {
			decaf.ThrowCause(HWException, err, "rx resources")
		}
		decaf.TryCatch(func() {
			if err := drv.rt.Downcall(uctx, "e1000_request_irq", func(kctx *kernel.Context) error {
				return drv.nuc.requestIRQ(kctx)
			}); err != nil {
				decaf.ThrowCause(HWException, err, "request_irq")
			}
			dd.powerUpPhy(uctx)
			dd.configDSPAfterLinkChange(uctx)
			if err := drv.rt.Downcall(uctx, "e1000_up", func(kctx *kernel.Context) error {
				drv.nuc.up(kctx)
				return nil
			}); err != nil {
				decaf.ThrowCause(HWException, err, "up")
			}
		}, func(e *decaf.Exception) {
			_ = drv.rt.Downcall(uctx, "e1000_free_all_rx_resources", func(kctx *kernel.Context) error {
				drv.nuc.freeRxResources(kctx)
				return nil
			})
			decaf.Rethrow(e)
		})
	}, func(e *decaf.Exception) {
		_ = drv.rt.Downcall(uctx, "e1000_free_all_tx_resources", func(kctx *kernel.Context) error {
			drv.nuc.freeTxResources(kctx)
			return nil
		})
		decaf.Rethrow(e)
	})
}

// reset quiesces and reinitializes the device after a failure (e1000_reset).
func (dd *decafDriver) reset(uctx *kernel.Context) {
	_ = dd.drv.rt.Downcall(uctx, "e1000_reset", func(kctx *kernel.Context) error {
		dd.drv.nuc.down(kctx)
		dd.drv.nuc.resetHW(kctx)
		return nil
	})
}

// close tears the interface down (e1000_close).
func (dd *decafDriver) close(uctx *kernel.Context) {
	drv := dd.drv
	_ = drv.rt.Downcall(uctx, "e1000_down", func(kctx *kernel.Context) error {
		drv.nuc.down(kctx)
		return nil
	})
	_ = drv.rt.Downcall(uctx, "e1000_free_irq", func(kctx *kernel.Context) error {
		drv.nuc.freeIRQ(kctx)
		return nil
	})
	_ = drv.rt.Downcall(uctx, "e1000_free_all_tx_resources", func(kctx *kernel.Context) error {
		drv.nuc.freeTxResources(kctx)
		return nil
	})
	_ = drv.rt.Downcall(uctx, "e1000_free_all_rx_resources", func(kctx *kernel.Context) error {
		drv.nuc.freeRxResources(kctx)
		return nil
	})
}
