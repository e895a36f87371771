package e1000

import (
	"encoding/binary"

	"decafdrivers/internal/decaf"
	"decafdrivers/internal/decaf/registry"
	"decafdrivers/internal/hw/e1000hw"
)

// moduleParams is the module-parameter class hierarchy from §5.1. The table
// is package-level, so the worker image holds the same one, and its order
// is the layout of the probe payload: paramSlot bytes per parameter, a
// little-endian uint32 presence flag then the int32 value.
var moduleParams = []decaf.Param{
	&decaf.RangeParam{BaseParam: decaf.BaseParam{ParamName: "TxDescriptors", Default: DefaultTxRing}, Min: MinRing, Max: MaxRing},
	&decaf.RangeParam{BaseParam: decaf.BaseParam{ParamName: "RxDescriptors", Default: DefaultRxRing}, Min: MinRing, Max: MaxRing},
	decaf.NewSetParam("Duplex", 0, 0, 1, 2),
	decaf.NewSetParam("FlowControl", 3, 0, 1, 2, 3),
	&decaf.BaseParam{ParamName: "Debug", Default: 3},
}

const (
	paramSlot = 8
	paramsLen = paramSlot * 5
)

// PHY registers and values of the Figure 5 DSP sequence.
const (
	phyDSPReg       = 0x15   // 0x2F5B truncated to the 5-bit MII space
	dspReconfigure  = 0x0003 // the write that starts the DSP's reconfiguration
	phyForceGiga    = 0x0040 // IGP01E1000_IEEE_FORCE_GIGA
	phyCtrlPowerOff = 0x0800 // MII_CR_POWER_DOWN
)

// decafCall is one execution of an e1000 decaf body: the call's handler
// context, with the case study's exception-style accessors as methods. It
// holds nothing of the driver instance — under the proc transport the body
// runs in the worker process — so everything it learns reaches the kernel as
// a downcall argument or a state cell.
//
//decaf:boundary
type decafCall struct{ *registry.Ctx }

// down crosses to a kernel target and returns its scalar result; a failed
// crossing throws.
func (c decafCall) down(d registry.Downcall, arg uint64) uint64 {
	v, err := c.Downcall(d, arg)
	if err != nil {
		decaf.ThrowCause(HWException, err, "%s(%#x)", d.Name(), arg)
	}
	return v
}

// params decodes the probe payload into the option map the parameter
// classes validate: absent parameters are left out, so they take their
// defaults.
func (c decafCall) params() map[string]int {
	if len(c.Data) != paramsLen {
		decaf.Throw(decaf.ParamException, "module-parameter payload of %d bytes, want %d", len(c.Data), paramsLen)
	}
	opts := make(map[string]int, len(moduleParams))
	for i, p := range moduleParams {
		slot := c.Data[i*paramSlot:]
		if binary.LittleEndian.Uint32(slot) != 0 {
			opts[p.Name()] = int(int32(binary.LittleEndian.Uint32(slot[4:])))
		}
	}
	return opts
}

// readPhyReg is the exception-style PHY accessor of Figure 5: the target
// returns the C convention — the value, or a negative errno — and Check
// turns the errno into a throw, so call sites shrink to bare calls.
func (c decafCall) readPhyReg(reg uint64) uint16 {
	v := int64(c.down(downReadPHYReg, reg))
	decaf.Check(HWException, int(v), "read_phy_reg")
	return uint16(v)
}

// writePhyReg is the write twin of readPhyReg.
func (c decafCall) writePhyReg(reg uint64, v uint16) {
	decaf.Check(HWException, int(int64(c.down(downWritePHYReg, reg<<16|uint64(v)))), "write_phy_reg")
}

// configDSPAfterLinkChange is the Figure 5 function rewritten with
// exceptions: the original C checked every return value; here failures
// propagate automatically.
func (c decafCall) configDSPAfterLinkChange() {
	savedData := c.readPhyReg(phyDSPReg)
	c.writePhyReg(phyDSPReg, dspReconfigure)
	c.writePhyReg(e1000hw.PhyCtrl, phyForceGiga)
	c.writePhyReg(phyDSPReg, savedData)
}

// powerUpPhy brings the PHY out of power-down.
func (c decafCall) powerUpPhy() {
	ctrl := c.readPhyReg(e1000hw.PhyCtrl)
	c.writePhyReg(e1000hw.PhyCtrl, ctrl&^phyCtrlPowerOff)
}

// probe is e1000_probe: parameter validation, reset, the EEPROM walk and
// its checksum, MAC extraction, PHY identification and the config-space
// snapshot. The kernel targets record the EEPROM shadow and config space as
// they read them; the settings this body derives go out through the cells.
func (c decafCall) probe() {
	resolved := decaf.ValidateAll(moduleParams, c.params())
	c.down(downResetHW, 0)

	var words [EEPROMWords]uint16
	var sum uint16
	for addr := range words {
		words[addr] = uint16(c.down(downReadEEPROM, uint64(addr)))
		sum += words[addr]
	}
	if sum != e1000hw.EEPROMChecksum {
		decaf.Throw(HWException, "EEPROM checksum %#x != %#x", sum, e1000hw.EEPROMChecksum)
	}
	mac := uint64(words[0]) | uint64(words[1])<<16 | uint64(words[2])<<32
	phyID := uint64(c.readPhyReg(e1000hw.PhyID1))<<16 | uint64(c.readPhyReg(e1000hw.PhyID2))
	c.down(downPCISaveState, 0)

	c.State.Store(cellTxRing, uint64(resolved["TxDescriptors"]))
	c.State.Store(cellRxRing, uint64(resolved["RxDescriptors"]))
	c.State.Store(cellFlowControl, uint64(resolved["FlowControl"]))
	c.State.Store(cellMsgEnable, uint64(uint32(int32(resolved["Debug"]))))
	c.State.Store(cellMAC, mac)
	c.State.Store(cellPhyID, phyID)
}

// open is the paper's Figure 4, verbatim in structure: nested handlers so a
// failure at any stage releases exactly the resources acquired before it,
// in reverse order, then rethrows.
func (c decafCall) open() {
	defer func() {
		if r := recover(); r != nil {
			if e, ok := r.(*decaf.Exception); ok {
				c.reset()
				decaf.Rethrow(e)
			}
			panic(r)
		}
	}()

	/* allocate transmit descriptors */
	c.down(downSetupTxResources, 0)
	decaf.TryCatch(func() {
		/* allocate receive descriptors */
		c.down(downSetupRxResources, 0)
		decaf.TryCatch(func() {
			c.down(downRequestIRQ, 0)
			c.powerUpPhy()
			c.configDSPAfterLinkChange()
			c.down(downUp, 0)
		}, func(e *decaf.Exception) {
			_, _ = c.Downcall(downFreeRxResources, 0)
			decaf.Rethrow(e)
		})
	}, func(e *decaf.Exception) {
		_, _ = c.Downcall(downFreeTxResources, 0)
		decaf.Rethrow(e)
	})
}

// reset quiesces and reinitializes the device after a failure (e1000_reset).
func (c decafCall) reset() {
	_, _ = c.Downcall(downDown, 0)
	_, _ = c.Downcall(downResetHW, 0)
}

// close tears the interface down (e1000_close).
func (c decafCall) close() {
	for _, down := range [...]registry.Downcall{downDown, downFreeIRQ, downFreeTxResources, downFreeRxResources} {
		_, _ = c.Downcall(down, 0)
	}
}

// run executes one of the bodies above for a handler: an exception it
// throws returns as the call's error, which is how it crosses back.
func run(body func(decafCall)) func(*registry.Ctx) error {
	return func(c *registry.Ctx) error {
		return decaf.ToError(decaf.Try(func() { body(decafCall{c}) }))
	}
}
